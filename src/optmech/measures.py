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

from dataclasses import dataclass

from .geometry import HalfPlane, Polygon, boundary_sections, clip_many, rect_polygon
from .types import Rectangle


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
        # relative to the shorter side, so the verdict does not move with scale
        self._edge_tol = 1e-9 * min(rect.b1, rect.b2)
        self._box = (
            HalfPlane(-1.0, 0.0, -rect.c1),
            HalfPlane(1.0, 0.0, rect.z1_max),
            HalfPlane(0.0, -1.0, -rect.c2),
            HalfPlane(0.0, 1.0, rect.z2_max),
        )

    def mass(self, poly: Polygon) -> float:
        return self.moments(poly)[0]

    def moments(self, poly: Polygon) -> tuple[float, float, float]:
        """Return (mass, integral of z1, integral of z2) of the measure on poly."""
        poly = clip_many(poly, self._box)
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
class Shuffle:
    """Piecewise-linear shuffle on the top-edge segment [c1, c1 + end].

    A point mass c1 (b2 - p_a) at z1 = c1, the ramp density
    2 b2 - c2 - 3 p_a + 3 a x on offsets x in [0, ramp_end], and the flat
    density 2 b2 from ramp_end to end, all per b1 b2.  With ramp_end = end
    it is the ramp shuffle of a lottery ending inside the edge; with
    p_a = a = 0 it is the two-step shuffle of the deterministic
    single-good structure.
    """

    rect: Rectangle
    p_a: float
    a: float
    ramp_end: float
    end: float

    def _base(self) -> float:
        return 2.0 * self.rect.b2 - self.rect.c2 - 3.0 * self.p_a

    def point_mass(self) -> float:
        return self.rect.c1 * (self.rect.b2 - self.p_a) / self.rect.area

    def density(self, offset: float) -> float:
        """Density at distance `offset` from the segment's left end."""
        if offset <= self.ramp_end:
            return (self._base() + 3.0 * self.a * offset) / self.rect.area
        return 2.0 * self.rect.b2 / self.rect.area

    def mass(self) -> float:
        xb, b2 = self.ramp_end, self.rect.b2
        ramp = xb * self._base() + 1.5 * self.a * xb * xb
        flat = 2.0 * b2 * (self.end - xb)
        return (self.rect.c1 * (b2 - self.p_a) + ramp + flat) / self.rect.area

    def first_moment(self) -> float:
        """First moment about the segment's left end (the point mass adds 0)."""
        xb = self.ramp_end
        ramp = 0.5 * xb * xb * self._base() + self.a * xb**3
        flat = self.rect.b2 * (self.end * self.end - xb * xb)
        return (ramp + flat) / self.rect.area

    def sign_pattern_ok(self, tol: float = 1e-9) -> bool:
        """Nonnegative atom, then a nondecreasing ramp from <= 0 that ends
        >= 0 if it ends the segment, else at most the flat value."""
        xb = self.ramp_end
        at_end = self.density(xb)
        return (
            self.point_mass() >= -tol
            and self.a >= -tol
            and self.density(0.0) <= tol
            and (at_end >= -tol if xb >= self.end else at_end <= self.density(self.end) + tol)
        )
