"""The transformed boundary measure and the 1-D shuffling measures.

For a uniform density on [c1, c1+b1] x [c2, c2+b2] the transformed measure,
in u = (z - c)/b on the unit square, consists of an interior density -3,
line densities on the four edges (-c2/b2 bottom, -c1/b1 left, 1 + c2/b2
top, 1 + c1/b1 right), and a unit point mass at the origin, the support's
corner (c1, c2).  Its total over the square is exactly zero.

Shuffling measures are signed 1-D measures supported on a segment of the
top edge plus a point mass at the segment's left end; every lottery item
of a menu has one, built from its weight, its net price and its
best-response region, whatever the structure, and certifies optimality
through its mass, first moment, and sign pattern.  A shuffle on the right
edge is the top-edge shuffle of the swapped rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import UNIT_SQUARE, Polygon, boundary_sections
from .types import Rectangle

SIGN_TOL = 1e-9  # slack on each inequality of a shuffle's sign pattern


class MuBar:
    """Evaluate the transformed measure on convex polygons in u = (z - c)/b.

    A polygon must lie inside the unit square, and it is measured exactly
    as given: an edge takes a side's line density only when both of its
    endpoints lie exactly on that side, and the corner atom counts only
    when the polygon contains (0, 0) exactly.  Regions clipped from
    ``UNIT_SQUARE`` meet this contract, since clipping keeps each side's
    coordinate exactly; a polygon with a vertex outside [0, 1]^2 raises
    ValueError.
    """

    def __init__(self, rect: Rectangle) -> None:
        r1, r2 = rect.c1 / rect.b1, rect.c2 / rect.b2
        # (axis, coordinate value, line density) for the four boundary edges
        self._edges = ((1, 0.0, -r2), (1, 1.0, 1.0 + r2), (0, 0.0, -r1), (0, 1.0, 1.0 + r1))

    def mass(self, poly: Polygon) -> float:
        return self.moments(poly)[0]

    def moments(self, poly: Polygon) -> tuple[float, float, float]:
        """Return (mass, integral of u1, integral of u2) of the measure on poly."""
        if poly.is_empty:
            return 0.0, 0.0, 0.0
        if not all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in poly.vertices):
            raise ValueError(f"polygon leaves the unit square: {poly.vertices}")
        area, ix, iy = poly.moments()
        mass, m1, m2 = -3.0 * area, -3.0 * ix, -3.0 * iy
        for axis, value, dens in self._edges:
            if dens == 0.0:
                continue
            for lo, hi in boundary_sections(poly, axis, value):
                length = hi - lo
                second = 0.5 * (hi * hi - lo * lo)
                mass += dens * length
                if axis == 1:  # horizontal edge: varying coordinate is u1
                    m1 += dens * second
                    m2 += dens * value * length
                else:
                    m1 += dens * value * length
                    m2 += dens * second
        if poly.contains((0.0, 0.0)):
            mass += 1.0
        return mass, m1, m2

    def total(self) -> float:
        """Measure of the whole support (identically zero up to rounding)."""
        return self.mass(UNIT_SQUARE)


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

    def sign_pattern_ok(self) -> bool:
        """Nonnegative atom, then a nondecreasing ramp from <= 0 that ends
        >= 0 if it ends the segment, else at most the flat value."""
        xb = self.ramp_end
        at_end = self.density(xb)
        return (
            self.point_mass() >= -SIGN_TOL
            and self.a >= -SIGN_TOL
            and self.density(0.0) <= SIGN_TOL
            and (at_end >= -SIGN_TOL if xb >= self.end else at_end <= self.density(self.end) + SIGN_TOL)
        )
