"""Convex polygon primitives on the value rectangle.

Polygons are convex, counterclockwise, possibly empty.  All regions used
by the solver arise from clipping the support rectangle with half-planes,
so Sutherland-Hodgman clipping plus shoelace moments is everything needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import MenuItem, Rectangle

Point = tuple[float, float]

_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class HalfPlane:
    """The closed half-plane n1*z1 + n2*z2 <= d."""

    n1: float
    n2: float
    d: float

    def __post_init__(self) -> None:
        if self.n1 == 0.0 and self.n2 == 0.0:
            raise ValueError("half-plane normal must be nonzero")

    def signed(self, pt: Point) -> float:
        """Negative inside, positive outside, zero on the boundary line."""
        return self.n1 * pt[0] + self.n2 * pt[1] - self.d


def _dedup(vs: tuple[Point, ...]) -> tuple[Point, ...]:
    if not vs:
        return ()
    out: list[Point] = []
    for v in vs:
        if not out or abs(v[0] - out[-1][0]) > _DEDUP_TOL or abs(v[1] - out[-1][1]) > _DEDUP_TOL:
            out.append(v)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _DEDUP_TOL and abs(out[0][1] - out[-1][1]) <= _DEDUP_TOL:
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

    The constructor removes consecutive duplicate vertices (within 1e-12),
    drops degenerate inputs with fewer than three distinct vertices, and
    normalizes orientation to counterclockwise.
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
        return _signed_area(self.vertices) if self.vertices else 0.0

    def moments(self) -> tuple[float, float, float]:
        """Return (A, Mx, My) = (area, integral of z1, integral of z2)."""
        if not self.vertices:
            return 0.0, 0.0, 0.0
        a = mx = my = 0.0
        vs = self.vertices
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            cross = x0 * y1 - x1 * y0
            a += cross
            mx += (x0 + x1) * cross
            my += (y0 + y1) * cross
        return a / 2.0, mx / 6.0, my / 6.0

    def contains(self, pt: Point, tol: float = 1e-12) -> bool:
        """True if pt lies in the closed polygon (within tol of the boundary)."""
        vs = self.vertices
        if not vs:
            return False
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < -tol:
                return False
        return True


EMPTY_POLYGON = Polygon(())


def rect_polygon(rect: Rectangle) -> Polygon:
    return Polygon(rect.corners())


def clip(poly: Polygon, hp: HalfPlane) -> Polygon:
    """Sutherland-Hodgman clip of a convex polygon by one half-plane."""
    vs = poly.vertices
    if not vs:
        return poly
    out: list[Point] = []
    dists = [hp.signed(v) for v in vs]
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


def clip_many(poly: Polygon, hps: list[HalfPlane] | tuple[HalfPlane, ...]) -> Polygon:
    for hp in hps:
        if poly.is_empty:
            break
        poly = clip(poly, hp)
    return poly


def best_response_regions(rect: Rectangle, menu: tuple[MenuItem, ...]) -> list[Polygon]:
    """Partition of the support by the buyer's preferred menu item.

    Region k holds the types for which item k maximizes q1*z1 + q2*z2 - t
    among all menu items and the outside option of buying nothing.  Each
    region is the rectangle clipped by the pairwise-preference half-planes
    plus the participation constraint; regions share boundaries, and when
    two items coincide exactly the earlier one keeps the region.
    """
    base = rect_polygon(rect)
    regions: list[Polygon] = []
    for k, it in enumerate(menu):
        poly = base
        empty = False
        for j, other in enumerate(menu):
            if j == k:
                continue
            n1 = other.q1 - it.q1
            n2 = other.q2 - it.q2
            d = other.t - it.t
            if n1 == 0.0 and n2 == 0.0:
                # identical allocation: cheaper item wins, first index breaks ties
                if d < 0.0 or (d == 0.0 and j < k):
                    empty = True
                    break
                continue
            poly = clip(poly, HalfPlane(n1, n2, d))
            if poly.is_empty:
                empty = True
                break
        if empty:
            regions.append(EMPTY_POLYGON)
            continue
        if it.q1 != 0.0 or it.q2 != 0.0:
            poly = clip(poly, HalfPlane(-it.q1, -it.q2, -it.t))
        elif it.t > 0.0:
            poly = EMPTY_POLYGON
        regions.append(poly)
    return regions


def non_participation_region(rect: Rectangle, menu: tuple[MenuItem, ...]) -> Polygon:
    """Types preferring the outside option to every menu item."""
    poly = rect_polygon(rect)
    for it in menu:
        if it.q1 == 0.0 and it.q2 == 0.0:
            # a free null item ties the outside option; only a subsidized
            # one (t < 0) strictly dominates it everywhere
            if it.t < 0.0:
                return EMPTY_POLYGON
            continue
        poly = clip(poly, HalfPlane(it.q1, it.q2, it.t))
        if poly.is_empty:
            break
    return poly


def boundary_sections(
    poly: Polygon, axis: int, value: float, tol: float = 1e-9
) -> list[tuple[float, float]]:
    """Edges of poly lying on the line z[axis] == value.

    Returns sorted, merged (lo, hi) intervals of the other coordinate.
    Used by the boundary-measure evaluator for the line densities that sit
    on the rectangle's four edges.
    """
    vs = poly.vertices
    if not vs:
        return []
    spans: list[tuple[float, float]] = []
    for v0, v1 in zip(vs, vs[1:] + vs[:1]):
        if abs(v0[axis] - value) <= tol and abs(v1[axis] - value) <= tol:
            lo, hi = sorted((v0[1 - axis], v1[1 - axis]))
            if hi - lo > 0.0:
                spans.append((lo, hi))
    spans.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + tol:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def random_menu(rng, rect: Rectangle, n_items: int | None = None) -> tuple[MenuItem, ...]:
    """A random menu (always containing the null item) for partition tests."""
    if n_items is None:
        n_items = int(rng.integers(2, 5))
    t_max = rect.z1_max + rect.z2_max
    items = [MenuItem(0.0, 0.0, 0.0)]
    for _ in range(n_items - 1):
        items.append(
            MenuItem(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, t_max)),
            )
        )
    return tuple(items)


def polygon_intersection(a: Polygon, b: Polygon) -> Polygon:
    """Intersection of two convex polygons (clip a by b's edges)."""
    vs = b.vertices
    if a.is_empty or not vs:
        return EMPTY_POLYGON
    out = a
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        # interior of a CCW polygon is to the left of each directed edge
        out = clip(out, HalfPlane(y1 - y0, -(x1 - x0), (y1 - y0) * x0 - (x1 - x0) * y0))
        if out.is_empty:
            break
    return out
