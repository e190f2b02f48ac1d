"""From solved structure parameters to an explicit menu and its revenue.

The menu is the mechanism: the buyer picks the utility-maximizing entry
(or nothing).  One builder per kind A-E returns each menu item with the
area of its best-response region, in menu order, and ``build_mechanism``
prices the menu from those areas without clipping.  Lottery prices come
from utility continuity across the exclusion boundary
(t = c2 + p_a1 + a1 c1 and its mirror).  In u = z - c on [0, b1] x [0, b2]
every region is a polygon whose vertices are the structure's own
parameters (the roof points P and Q, the kinks m_i, the edge prices p_a_i
and the bundle offset p), so each area is a short polynomial in them.  The
forms hold on the geometry ``solve`` produces: a lottery line
u2 = p_a1 - a1 u1 enters through the left edge below the top, and kind A's
roof points satisfy P1 <= Q1 and Q2 <= P2.  ``expected_revenue`` prices
any menu from its best-response polygons on the unit square; the verifier
uses it to check the closed forms.
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
Priced = tuple[tuple[MenuItem, float], ...]

K = StructureKind


class IncompleteParams(ValueError):
    """The structure parameters lack a field the requested kind needs."""


def _require(params: SolveParams | None, kind: StructureKind, *names: str) -> list:
    values = [getattr(params, name, None) for name in names]
    if None in values:
        raise IncompleteParams(f"kind {kind.value} requires parameters {names}")
    return values


def _kind_a(params: SolveParams | None, rect: Rectangle) -> Priced:
    # null pentagon (0, 0), (p_a2, 0), Q, P, (0, p_a1); the lotteries
    # left of P and below Q; the bundle the box northeast of (P1, Q2)
    # less the triangle under the diagonal from P to Q
    p_a1, p_a2, a1, a2, p, P, Q = _require(params, K.A, "p_a1", "p_a2", "a1", "a2", "p", "P", "Q")
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    P1, P2 = P[0] - c1, P[1] - c2
    Q1, Q2 = Q[0] - c1, Q[1] - c2
    return (
        (NULL_ITEM, 0.5 * (p_a2 * Q2 + Q1 * P2 - P1 * Q2 + P1 * p_a1)),
        (MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1), 0.5 * P1 * (2.0 * b2 - p_a1 - P2)),
        (MenuItem(1.0, a2, c1 + p_a2 + a2 * c2), 0.5 * Q2 * (2.0 * b1 - p_a2 - Q1)),
        (MenuItem(1.0, 1.0, c1 + c2 + p), (b1 - P1) * (b2 - Q2) - 0.5 * (Q1 - P1) * (P2 - Q2)),
    )


def _kind_b(params: SolveParams | None, rect: Rectangle) -> Priced:
    # the lottery above u2 = p_a1 - a1 u1 left of the kink m1, the bundle
    # right of it above u1 + u2 = p
    p_a1, a1, m1, p = _require(params, K.B, "p_a1", "a1", "m1", "p")
    c1, c2, b2 = rect.c1, rect.c2, rect.b2
    under = m1 * p_a1 - 0.5 * a1 * m1 * m1
    corner = 0.5 * (p - m1) ** 2
    return (
        (NULL_ITEM, under + corner),
        (MenuItem(a1, 1.0, c2 + p_a1 + a1 * c1), m1 * b2 - under),
        (MenuItem(1.0, 1.0, c1 + c2 + p), (rect.b1 - m1) * b2 - corner),
    )


def _kind_c(params: SolveParams | None, rect: Rectangle) -> Priced:
    # the square split by the diagonal u1 + u2 = p, 0 <= p <= b1 + b2
    (p,) = _require(params, K.C, "p")
    b1, b2 = rect.b1, rect.b2
    lo, hi = min(b1, b2), max(b1, b2)
    if p <= lo:
        below = 0.5 * p * p
        above = b1 * b2 - below
    elif p <= hi:
        below, above = lo * (p - 0.5 * lo), lo * (b1 + b2 - p - 0.5 * lo)
    else:
        above = 0.5 * (b1 + b2 - p) ** 2
        below = b1 * b2 - above
    return (NULL_ITEM, below), (MenuItem(1.0, 1.0, rect.c1 + rect.c2 + p), above)


def _kind_d(params: SolveParams | None, rect: Rectangle) -> Priced:
    # the lottery above u2 = p_a1 - a1 u1 left of the cut u1 = p, the
    # bundle right of it, priced by continuity across the cut
    # z1 = c1 + p: t_bundle = t_a1 + (1 - a1)(c1 + p); the lottery line
    # meets u2 = 0 at m1, which the solver admits up to a rounding
    # tolerance past the cut
    p_a1, a1, m1, p = _require(params, K.D, "p_a1", "a1", "m1", "p")
    c1, b2 = rect.c1, rect.b2
    t_a1 = rect.c2 + p_a1 + a1 * c1
    m = min(m1, p)
    under = m * p_a1 - 0.5 * a1 * m * m
    return (
        (NULL_ITEM, under),
        (MenuItem(a1, 1.0, t_a1), p * b2 - under),
        (MenuItem(1.0, 1.0, t_a1 + (1.0 - a1) * (c1 + p)), (rect.b1 - p) * b2),
    )


def _kind_e(params: SolveParams | None, rect: Rectangle) -> Priced:
    # good 2 to every type, and the bundle right of the cut u1 = (b1 - c1)/2
    c1, c2, b1 = rect.c1, rect.c2, rect.b1
    half = 0.5 * rect.b2
    return (
        (MenuItem(0.0, 1.0, c2), half * (b1 - c1)),
        (MenuItem(1.0, 1.0, c2 + 0.5 * (c1 + b1)), half * (b1 + c1)),
    )


_BUILDERS = {K.A: _kind_a, K.B: _kind_b, K.C: _kind_c, K.D: _kind_d, K.E: _kind_e}


def expected_revenue(menu: Menu, rect: Rectangle) -> float:
    """Expected payment of any menu under the uniform density: each price
    times the area of its best-response polygon on the unit square, which
    is the probability the buyer picks it.  The verifier's check on the
    closed-form region areas of ``build_mechanism``."""
    return sum(item.t * region.area() for item, region in zip(menu, best_response_regions(rect, menu)))


def build_mechanism(kind: StructureKind, params: SolveParams | None, rect: Rectangle) -> Mechanism:
    """Assemble the full record for kinds A-E: the menu, and its revenue
    from the closed-form region areas of the structure.  Kinds F, G and H
    are B, D and E with the goods exchanged: build the mirror kind on the
    swapped support and take ``Mechanism.swapped()``.
    """
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise IncompleteParams(
            f"kind {kind.value} is a mirrored structure; build its mirror kind on the "
            "swapped support and take Mechanism.swapped()"
        )
    priced = builder(params, rect)
    menu = tuple(item for item, _ in priced)
    revenue = sum(item.t * area for item, area in priced) / rect.area
    return Mechanism(kind=kind, params=params, menu=menu, revenue=revenue)
