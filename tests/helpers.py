"""Helpers that only the tests use: random menus, polygon intersection,
the non-participation region, a shuffle report and the simple menus every
optimum must match."""

import math

from optmech.geometry import EMPTY_POLYGON, HalfPlane, Polygon, clip, rect_polygon
from optmech.measures import MuBar, ShuffleAlpha, ShuffleBeta, ShuffleBetaE
from optmech.mechanism import expected_revenue
from optmech.types import NULL_ITEM, MenuItem, Rectangle


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


def mu_bar_of_polygon(rect: Rectangle, poly: Polygon) -> float:
    """Total transformed measure of a convex polygon (clipped to the support)."""
    return MuBar(rect).mass(poly)


def check_interval_measure_cvx_zero(
    measure: ShuffleAlpha | ShuffleBeta | ShuffleBetaE, tol: float = 1e-9
) -> dict:
    """Mass, first moment, and sign-pattern flag of a shuffling measure.

    A shuffle certifies its structure when the mass vanishes, the first
    moment vanishes (or is nonnegative, for the two-step shuffle), and the
    density runs negative-to-positive after a nonnegative atom.
    """
    return {
        "total_mass": measure.mass(),
        "first_moment": measure.first_moment(),
        "sign_pattern_ok": measure.sign_pattern_ok(tol),
    }


def rival_revenue(rect: Rectangle) -> float:
    """Best revenue of the simple menus that every optimum must match.

    Pure bundling at each stationary price of the bundle revenue (one per
    piece of the distribution of z1 + z2, plus its kinks), separate sale at
    each good's own optimal price, and the E and H menus (one good at its
    lowest value, the other as an upgrade at its own optimal price); each
    menu is evaluated by ``expected_revenue``.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    s0, short, long_ = c1 + c2, min(b1, b2), max(b1, b2)
    offsets = (
        (math.sqrt(s0 * s0 + 6.0 * b1 * b2) - s0) / 3.0,
        (2.0 * long_ + short - 2.0 * s0) / 4.0,
        (b1 + b2 - 2.0 * s0) / 3.0,
        short,
        long_,
    )
    t1, t2 = max(c1, 0.5 * (c1 + rect.z1_max)), max(c2, 0.5 * (c2 + rect.z2_max))
    menus = [(NULL_ITEM, MenuItem(1.0, 1.0, s0 + min(max(u, 0.0), b1 + b2))) for u in offsets]
    menus += [
        (NULL_ITEM, MenuItem(1.0, 0.0, t1), MenuItem(0.0, 1.0, t2), MenuItem(1.0, 1.0, t1 + t2)),
        (NULL_ITEM, MenuItem(0.0, 1.0, c2), MenuItem(1.0, 1.0, c2 + t1)),
        (NULL_ITEM, MenuItem(1.0, 0.0, c1), MenuItem(1.0, 1.0, c1 + t2)),
    ]
    return max(expected_revenue(menu, rect) for menu in menus)
