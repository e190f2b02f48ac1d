"""From solved structure parameters to an explicit menu and its revenue.

The menu is the mechanism: the buyer picks the utility-maximizing entry
(or nothing).  Each solved structure partitions the support into at most
four polygons whose vertices are the structure's own parameters (the
corner, the roof points P and Q, the kinks m_i, the edge prices p_a_i and
the bundle offset p), so ``region_areas`` gives every area in closed form
and ``build_mechanism`` prices the menu from them without clipping.
``expected_revenue`` prices any menu from its best-response polygons on
the unit square; the verifier uses it to check the closed forms.  No
quadrature is involved anywhere.
"""

from __future__ import annotations

from .geometry import best_response_regions
from .types import (
    NULL_ITEM,
    MenuItem,
    Mechanism,
    Rectangle,
    SolveParams,
    StructureKind,
)

Menu = tuple[MenuItem, ...]


class IncompleteParams(ValueError):
    """The structure parameters lack a field the requested kind needs."""


def _require(params: SolveParams | None, kind: StructureKind, *names: str) -> list:
    if params is None:
        raise IncompleteParams(f"kind {kind.value} requires parameters {names}")
    out = []
    for name in names:
        v = getattr(params, name)
        if v is None:
            raise IncompleteParams(f"kind {kind.value} requires parameter {name!r}")
        out.append(v)
    return out


def menu_from_structure(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> Menu:
    """Explicit menu for a solved structure of kind A-E.

    Partial-lottery prices come from utility continuity across the
    exclusion boundary (t = c2 + p_a1 + a1 c1 and its mirror); the
    bundle price is c1 + c2 + p except for kind D, where continuity
    across the vertical boundary z1 = c1 + p forces
    t_bundle = t_a1 + (1 - a1)(c1 + p).  Kinds F, G and H are B, D and E
    with the goods exchanged; ``Mechanism.swapped()`` mirrors them.
    """
    c1, c2 = rect.c1, rect.c2
    K = StructureKind
    if kind is K.A:
        p_a1, p_a2, a1, a2, p = _require(params, kind, "p_a1", "p_a2", "a1", "a2", "p")
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1),
            MenuItem(1.0, a2, c1 + p_a2 + a2 * c2),
            MenuItem(1.0, 1.0, c1 + c2 + p),
        )
    if kind is K.B:
        p_a1, a1, p = _require(params, kind, "p_a1", "a1", "p")
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1),
            MenuItem(1.0, 1.0, c1 + c2 + p),
        )
    if kind is K.C:
        (p,) = _require(params, kind, "p")
        return (NULL_ITEM, MenuItem(1.0, 1.0, c1 + c2 + p))
    if kind is K.D:
        p_a1, a1, p = _require(params, kind, "p_a1", "a1", "p")
        t_a1 = c2 + p_a1 + a1 * c1
        return (
            NULL_ITEM,
            MenuItem(a1, 1.0, t_a1),
            MenuItem(1.0, 1.0, t_a1 + (1.0 - a1) * (c1 + p)),
        )
    if kind is K.E:
        return (
            MenuItem(0.0, 1.0, c2),
            MenuItem(1.0, 1.0, c2 + 0.5 * (c1 + rect.b1)),
        )
    raise IncompleteParams(
        f"kind {kind.value} is a mirrored structure; build its mirror kind on the "
        "swapped support and take Mechanism.swapped()"
    )


def expected_revenue(menu: Menu, rect: Rectangle) -> float:
    """Expected payment of any menu under the uniform density: each price
    times the area of its best-response polygon on the unit square, which
    is the probability the buyer picks it.  The verifier's check on the
    closed forms of ``region_areas``."""
    return sum(item.t * region.area() for item, region in zip(menu, best_response_regions(rect, menu)))


def _split_by_diagonal(p: float, b1: float, b2: float) -> tuple[float, float]:
    """Areas of [0, b1] x [0, b2] below and above u1 + u2 = p, 0 <= p <= b1 + b2."""
    lo, hi = min(b1, b2), max(b1, b2)
    if p <= lo:
        below = 0.5 * p * p
        return below, b1 * b2 - below
    if p <= hi:
        return lo * (p - 0.5 * lo), lo * (b1 + b2 - p - 0.5 * lo)
    above = 0.5 * (b1 + b2 - p) ** 2
    return b1 * b2 - above, above


def region_areas(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> tuple[float, ...]:
    """Area of each entry's best-response region in the menu of a solved
    structure of kind A-E, in menu order, in closed form.

    In coordinates u = z - c on [0, b1] x [0, b2] every region is a
    polygon whose vertices are among the structure's parameters, so each
    area is a short polynomial in them.  The forms hold on the geometry
    ``solve`` produces: a lottery line u2 = p_a1 - a1 u1 enters through
    the left edge below the top, and kind A's roof points satisfy
    P1 <= Q1 and Q2 <= P2.
    """
    b1, b2 = rect.b1, rect.b2
    K = StructureKind
    if kind is K.A:
        # null pentagon (0, 0), (p_a2, 0), Q, P, (0, p_a1); the lotteries
        # left of P and below Q; the bundle the box northeast of (P1, Q2)
        # less the triangle under the diagonal from P to Q
        p_a1, p_a2, P, Q = _require(params, kind, "p_a1", "p_a2", "P", "Q")
        P1, P2 = P[0] - rect.c1, P[1] - rect.c2
        Q1, Q2 = Q[0] - rect.c1, Q[1] - rect.c2
        return (
            0.5 * (p_a2 * Q2 + Q1 * P2 - P1 * Q2 + P1 * p_a1),
            0.5 * P1 * (2.0 * b2 - p_a1 - P2),
            0.5 * Q2 * (2.0 * b1 - p_a2 - Q1),
            (b1 - P1) * (b2 - Q2) - 0.5 * (Q1 - P1) * (P2 - Q2),
        )
    if kind is K.B:
        # the lottery above u2 = p_a1 - a1 u1 left of the kink m1, the
        # bundle right of it above u1 + u2 = p
        p_a1, a1, m1, p = _require(params, kind, "p_a1", "a1", "m1", "p")
        under = m1 * p_a1 - 0.5 * a1 * m1 * m1
        corner = 0.5 * (p - m1) ** 2
        return under + corner, m1 * b2 - under, (b1 - m1) * b2 - corner
    if kind is K.C:
        (p,) = _require(params, kind, "p")
        return _split_by_diagonal(p, b1, b2)
    if kind is K.D:
        # the lottery above u2 = p_a1 - a1 u1 left of the cut u1 = p, the
        # bundle right of it; the lottery line meets u2 = 0 at m1, which
        # the solver admits up to a rounding tolerance past the cut
        p_a1, a1, m1, p = _require(params, kind, "p_a1", "a1", "m1", "p")
        m = min(m1, p)
        under = m * p_a1 - 0.5 * a1 * m * m
        return under, p * b2 - under, (b1 - p) * b2
    if kind is K.E:
        # the bundle right of the cut u1 = (b1 - c1)/2
        half = 0.5 * b2
        return half * (b1 - rect.c1), half * (b1 + rect.c1)
    raise IncompleteParams(
        f"kind {kind.value} is a mirrored structure; build its mirror kind on the "
        "swapped support and take Mechanism.swapped()"
    )


def build_mechanism(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> Mechanism:
    """Assemble the full record: the menu, and its revenue from the
    closed-form region areas of the structure, for kinds A-E.  Kinds F, G
    and H are B, D and E on the swapped support, mirrored back by
    ``Mechanism.swapped()``.
    """
    menu = menu_from_structure(kind, params, rect)
    areas = region_areas(kind, params, rect)
    revenue = sum(item.t * area for item, area in zip(menu, areas)) / rect.area
    return Mechanism(kind=kind, params=params, menu=menu, revenue=revenue)
