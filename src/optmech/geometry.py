"""Convex polygon primitives on the unit square.

Polygons are convex, counterclockwise, possibly empty.  The verifier maps
the support [c1, c1+b1] x [c2, c2+b2] to u = (z - c)/b in [0, 1]^2 before
any clipping, so every best-response region of a menu is the fixed unit
square clipped by half-planes, and no code here handles the support's
scale.  Sutherland-Hodgman clipping plus shoelace moments is everything
needed; the solver takes its regions' areas in closed form instead.

Nothing here has a tolerance.  A clip interpolates along each cut edge,
which keeps the coordinate of an edge on a side of the square exactly and
puts no vertex outside [0, 1]^2, so which edges of a region lie on a side
and whether it holds the corner are read by exact comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import NULL_ITEM, MenuItem, Rectangle

Point = tuple[float, float]


def _dedup(vs: tuple[Point, ...]) -> tuple[Point, ...]:
    out: list[Point] = []
    for v in vs:
        if not out or v != out[-1]:
            out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _signed_area(vs: tuple[Point, ...]) -> float:
    a = 0.0
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        a += x0 * y1 - x1 * y0
    return a / 2.0


@dataclass(frozen=True)
class Polygon:
    """Convex polygon with CCW vertices; () means the empty polygon.

    The constructor removes consecutive equal vertices, drops degenerate
    inputs with fewer than three distinct vertices, and normalizes
    orientation to counterclockwise.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        vs = _dedup(self.vertices)
        if len(vs) < 3:
            vs = ()
        elif _signed_area(vs) < 0.0:
            vs = tuple(reversed(vs))
        object.__setattr__(self, "vertices", vs)

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def area(self) -> float:
        return _signed_area(self.vertices)

    def moments(self) -> tuple[float, float, float]:
        """Return (A, Mx, My) = (area, integral of z1, integral of z2)."""
        a = mx = my = 0.0
        vs = self.vertices
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            cross = x0 * y1 - x1 * y0
            a += cross
            mx += (x0 + x1) * cross
            my += (y0 + y1) * cross
        return a / 2.0, mx / 6.0, my / 6.0

    def contains(self, pt: Point) -> bool:
        """True if pt lies in the closed polygon."""
        vs = self.vertices
        if not vs:
            return False
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < 0.0:
                return False
        return True


EMPTY_POLYGON = Polygon(())
UNIT_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def clip(poly: Polygon, n1: float, n2: float, d: float) -> Polygon:
    """Sutherland-Hodgman clip of a convex polygon to the closed half-plane
    n1*z1 + n2*z2 <= d; a zero normal keeps all for d >= 0, else nothing."""
    vs = poly.vertices
    out: list[Point] = []
    dists = [n1 * x + n2 * y - d for x, y in vs]
    n = len(vs)
    for i in range(n):
        cur, nxt = vs[i], vs[(i + 1) % n]
        dc, dn = dists[i], dists[(i + 1) % n]
        if dc <= 0.0:
            out.append(cur)
        if (dc < 0.0 < dn) or (dn < 0.0 < dc):
            s = dc / (dc - dn)
            out.append((cur[0] + s * (nxt[0] - cur[0]), cur[1] + s * (nxt[1] - cur[1])))
    return Polygon(tuple(out))


def net_prices(rect: Rectangle, menu: tuple[MenuItem, ...]) -> tuple[float, ...]:
    """Each item's net price t - q1 c1 - q2 c2, read off its price t."""
    return tuple([item.t - (item.q1 * rect.c1 + item.q2 * rect.c2) for item in menu])


def best_response_regions(
    rect: Rectangle, menu: tuple[MenuItem, ...], nets: tuple[float, ...] | None = None
) -> list[Polygon]:
    """Partition of the support by the buyer's preferred menu item, as
    polygons in u = (z - c)/b on the unit square.

    Region k holds the types for which item k maximizes q1*z1 + q2*z2 - t
    among all menu items and the outside option of buying nothing; in u
    item k is worth q1 b1 u1 + q2 b2 u2 less its net price
    t - q1 c1 - q2 c2, which ``nets`` gives in menu order, or else is read
    off t.  Each region is the unit square clipped by the half-planes where
    item k beats each other item and the outside option, which is the null
    item last unless the menu holds it already; regions share boundaries,
    and when two items have the same allocation the cheaper one keeps the
    region, the earlier one on a tie.
    """
    if nets is None:
        nets = net_prices(rect, menu)
    rivals, rival_nets = (menu, nets) if NULL_ITEM in menu else ((*menu, NULL_ITEM), (*nets, 0.0))
    return [_region(k, rivals, rival_nets, rect) for k in range(len(menu))]


def _region(k: int, rivals: tuple[MenuItem, ...], nets: tuple[float, ...], rect: Rectangle) -> Polygon:
    it = rivals[k]
    poly = UNIT_SQUARE
    for j, other in enumerate(rivals):
        if j == k:
            continue
        n1 = other.q1 - it.q1
        n2 = other.q2 - it.q2
        d = nets[j] - nets[k]
        if n1 == 0.0 and n2 == 0.0:
            if d < 0.0 or (d == 0.0 and j < k):
                return EMPTY_POLYGON
            continue
        poly = clip(poly, n1 * rect.b1, n2 * rect.b2, d)
        if poly.is_empty:
            return poly
    return poly


def boundary_sections(poly: Polygon, axis: int, value: float) -> list[tuple[float, float]]:
    """Where poly meets the line u[axis] == value along an edge.

    Returns the (lo, hi) span of the other coordinate over the endpoints of
    the edges with both endpoints at u[axis] == value exactly, or [] where
    no edge lies there: a convex polygon meets a line in one segment.  Used
    by the boundary-measure evaluator for the line densities that sit on
    the unit square's four edges.
    """
    vs = poly.vertices
    on_line = [(v0, v1) for v0, v1 in zip(vs, vs[1:] + vs[:1]) if v0[axis] == value == v1[axis]]
    ends = [v[1 - axis] for edge in on_line for v in edge]
    return [(min(ends), max(ends))] if ends else []
