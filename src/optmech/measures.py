"""The transformed boundary measure and the 1-D shuffling measures.

For a uniform density on [c1, c1+b1] x [c2, c2+b2] the transformed measure
consists of an interior density -3/(b1 b2), line densities on the four edges
(-c2/(b1 b2) bottom, -c1/(b1 b2) left, +(c2+b2)/(b1 b2) top,
+(c1+b1)/(b1 b2) right), and a unit point mass at the corner (c1, c2).
Its total over the rectangle is exactly zero.

Shuffling measures are signed 1-D measures supported on a segment of the
top edge plus a point mass at the segment's left end; each kind of solution
certifies optimality through the mass, first moment, and sign pattern of
its shuffle.  A shuffle on the right edge is the top-edge shuffle of the
swapped rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Polygon, boundary_sections, clip, rect_polygon, HalfPlane
from .types import Rectangle


class ZeroCornerCase(ValueError):
    """Shuffle parameters are undefined when the relevant corner offset is zero."""


class MuBar:
    """Evaluate the transformed measure on convex sub-polygons of the support.

    Polygons are clipped to the rectangle before evaluation, so callers may
    pass any convex polygon.  Edge line densities are picked up by polygon
    edges lying on the rectangle boundary; the corner point mass is counted
    for polygons containing (c1, c2).
    """

    def __init__(self, rect: Rectangle) -> None:
        self.rect = rect
        scale = 1.0 / rect.area
        # (axis, coordinate value, line density) for the four boundary edges
        self._edges = (
            (1, rect.c2, -rect.c2 * scale),
            (1, rect.z2_max, rect.z2_max * scale),
            (0, rect.c1, -rect.c1 * scale),
            (0, rect.z1_max, rect.z1_max * scale),
        )
        self._interior = -3.0 * scale
        self._edge_tol = 1e-9 * max(
            1.0, abs(rect.z1_max), abs(rect.z2_max)
        )

    def _clipped(self, poly: Polygon) -> Polygon:
        r = self.rect
        for hp in (
            HalfPlane(-1.0, 0.0, -r.c1),
            HalfPlane(1.0, 0.0, r.z1_max),
            HalfPlane(0.0, -1.0, -r.c2),
            HalfPlane(0.0, 1.0, r.z2_max),
        ):
            poly = clip(poly, hp)
            if poly.is_empty:
                break
        return poly

    def mass(self, poly: Polygon) -> float:
        return self.moments(poly)[0]

    def moments(self, poly: Polygon) -> tuple[float, float, float]:
        """Return (mass, integral of z1, integral of z2) of the measure on poly."""
        poly = self._clipped(poly)
        if poly.is_empty:
            return 0.0, 0.0, 0.0
        area, ix, iy = poly.moments()
        mass = self._interior * area
        m1 = self._interior * ix
        m2 = self._interior * iy
        for axis, value, dens in self._edges:
            if dens == 0.0 and value == 0.0:
                continue
            for lo, hi in boundary_sections(poly, axis, value, self._edge_tol):
                length = hi - lo
                second = 0.5 * (hi * hi - lo * lo)
                mass += dens * length
                if axis == 1:  # horizontal edge: varying coordinate is z1
                    m1 += dens * second
                    m2 += dens * value * length
                else:
                    m1 += dens * value * length
                    m2 += dens * second
        if poly.contains((self.rect.c1, self.rect.c2), tol=self._edge_tol):
            mass += 1.0
            m1 += self.rect.c1
            m2 += self.rect.c2
        return mass, m1, m2

    def total(self) -> float:
        """Measure of the whole rectangle (identically zero up to rounding)."""
        return self.mass(rect_polygon(self.rect))


@dataclass(frozen=True)
class ShuffleAlpha:
    """Linear-ramp shuffle on a top-edge segment of length m.

    Density (2B - C - 3 p_a + 3 a (x - c)) / (b1 b2) for x in [c, c+m]
    along the edge, plus a point mass c (B - p_a) / (b1 b2) at x = c,
    where c = c1 is the own-axis corner offset and B = b2, C = c2 are the
    cross-axis side length and corner offset.
    """

    rect: Rectangle
    p_a: float
    a: float
    m: float

    def _constants(self) -> tuple[float, float, float, float]:
        r = self.rect
        return r.c1, r.c2, r.b2, r.area

    def point_mass(self) -> float:
        c, _, big_b, area = self._constants()
        return c * (big_b - self.p_a) / area

    def density(self, offset: float) -> float:
        """Density at distance `offset` from the segment's left end."""
        _, big_c, big_b, area = self._constants()
        return (2.0 * big_b - big_c - 3.0 * self.p_a + 3.0 * self.a * offset) / area

    def mass(self) -> float:
        c, big_c, big_b, area = self._constants()
        base = 2.0 * big_b - big_c - 3.0 * self.p_a
        return (
            c * (big_b - self.p_a)
            + self.m * base
            + 1.5 * self.a * self.m * self.m
        ) / area

    def first_moment(self) -> float:
        """First moment about the segment's left end (point mass contributes 0)."""
        _, big_c, big_b, area = self._constants()
        base = 2.0 * big_b - big_c - 3.0 * self.p_a
        return (0.5 * self.m * self.m * base + self.a * self.m**3) / area

    def sign_pattern_ok(self, tol: float = 1e-9) -> bool:
        """Positive atom, then a ramp running from <= 0 up to >= 0."""
        return (
            self.point_mass() >= -tol
            and self.a >= -tol
            and self.density(0.0) <= tol
            and self.density(self.m) >= -tol
        )


def alpha_params(rect: Rectangle, p_a: float) -> ShuffleAlpha:
    """Top-edge shuffle slope and span for a given edge price.

    Requires the own-axis corner offset to be positive (the zero-offset
    case has a degenerate flat shuffle handled separately by the solver)
    and p_a strictly inside ((2B - C)/3, B).
    """
    c, big_c, big_b = rect.c1, rect.c2, rect.b2
    if c == 0.0:
        raise ZeroCornerCase(
            "alpha_params requires a positive own-axis corner offset"
        )
    lo = (2.0 * big_b - big_c) / 3.0
    if not (lo < p_a < big_b):
        raise ValueError(
            f"p_a must lie in ({lo!r}, {big_b!r}), got {p_a!r}"
        )
    d = big_c - 2.0 * big_b + 3.0 * p_a
    a = d * d / (8.0 * c * (big_b - p_a))
    m = 4.0 * c * (big_b - p_a) / d
    return ShuffleAlpha(rect, p_a, a, m)


@dataclass(frozen=True)
class ShuffleBeta:
    """Ramp-then-flat shuffle on [c, c+p] of the top edge.

    Density (2B + (3 a (x - c) - C - 3 p_a) * 1(x <= c + p_a/a)) / (b1 b2)
    plus a point mass c (B - p_a) / (b1 b2) at x = c.
    """

    rect: Rectangle
    p_a: float
    a: float
    p: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"a must be positive, got {self.a!r}")

    def _constants(self) -> tuple[float, float, float, float]:
        r = self.rect
        return r.c1, r.c2, r.b2, r.area

    @property
    def ramp_end(self) -> float:
        """Distance from the left end where the density jumps to its flat value."""
        return min(self.p_a / self.a, self.p)

    def point_mass(self) -> float:
        c, _, big_b, area = self._constants()
        return c * (big_b - self.p_a) / area

    def density(self, offset: float) -> float:
        _, big_c, big_b, area = self._constants()
        if offset <= self.p_a / self.a:
            return (2.0 * big_b - big_c - 3.0 * self.p_a + 3.0 * self.a * offset) / area
        return 2.0 * big_b / area

    def mass(self) -> float:
        c, big_c, big_b, area = self._constants()
        xb = self.ramp_end
        base = 2.0 * big_b - big_c - 3.0 * self.p_a
        ramp = xb * base + 1.5 * self.a * xb * xb
        flat = 2.0 * big_b * (self.p - xb)
        return (c * (big_b - self.p_a) + ramp + flat) / area

    def first_moment(self) -> float:
        _, big_c, big_b, area = self._constants()
        xb = self.ramp_end
        base = 2.0 * big_b - big_c - 3.0 * self.p_a
        ramp = 0.5 * xb * xb * base + self.a * xb**3
        flat = big_b * (self.p * self.p - xb * xb)
        return (ramp + flat) / area

    def sign_pattern_ok(self, tol: float = 1e-9) -> bool:
        xb = self.ramp_end
        return (
            self.point_mass() >= -tol
            and self.density(0.0) <= tol
            and self.density(xb) <= self.density(self.p) + tol
        )


def beta_p_of(rect: Rectangle, p_a: float, a: float) -> tuple[float, float]:
    """Segment lengths p at which the top-edge ramp-then-flat shuffle has
    zero mass and zero first moment, respectively.  The two agree exactly
    when the structure's free parameters are consistent.
    """
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    c, big_c, big_b = rect.c1, rect.c2, rect.b2
    length = p_a / a
    p_from_mass = (
        1.5 * p_a * p_a / a + big_c * p_a / a - c * (big_b - p_a)
    ) / (2.0 * big_b)
    p_from_moment = length * math.sqrt((p_a + big_c) / (2.0 * big_b))
    return p_from_mass, p_from_moment


@dataclass(frozen=True)
class ShuffleBetaE:
    """Two-step top-edge shuffle for the deterministic single-good structure.

    Steps (2B - C)/(b1 b2) on [c, c + B' ] and 2B/(b1 b2) up to the
    midpoint (c + L)/2 of the own axis, plus a point mass c B / (b1 b2)
    at x = c, where B' = L B / C with L = b1 the own-axis side length.
    """

    rect: Rectangle

    def __post_init__(self) -> None:
        if self.rect.c2 == 0.0:
            raise ZeroCornerCase(
                "the two-step shuffle requires a positive cross-axis corner offset"
            )

    def _constants(self) -> tuple[float, float, float, float, float]:
        r = self.rect
        return r.c1, r.c2, r.b1, r.b2, r.area

    @property
    def step_break(self) -> float:
        """Distance from the left end where the low step ends."""
        c, big_c, big_l, big_b, _ = self._constants()
        return min(big_l * big_b / big_c, self.half_span)

    @property
    def half_span(self) -> float:
        """Segment length (b - c)/2 measured from the left end."""
        c, _, big_l, _, _ = self._constants()
        return 0.5 * (big_l - c)

    def point_mass(self) -> float:
        c, _, _, big_b, area = self._constants()
        return c * big_b / area

    def mass(self) -> float:
        c, big_c, _, big_b, area = self._constants()
        xb = self.step_break
        r = self.half_span
        return (c * big_b + (2.0 * big_b - big_c) * xb + 2.0 * big_b * (r - xb)) / area

    def first_moment(self) -> float:
        _, big_c, _, big_b, area = self._constants()
        xb = self.step_break
        r = self.half_span
        return (0.5 * (2.0 * big_b - big_c) * xb * xb + big_b * (r * r - xb * xb)) / area

    def sign_pattern_ok(self, tol: float = 1e-9) -> bool:
        _, big_c, _, big_b, _ = self._constants()
        return self.point_mass() >= -tol and 2.0 * big_b - big_c <= tol
