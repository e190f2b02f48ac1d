"""From solved structure parameters to an explicit menu and its revenue.

The menu is the mechanism: the buyer picks the utility-maximizing entry
(or nothing).  One builder per kind A-E returns each menu item as plain
floats with the area of its best-response region and its net price
t - q1 c1 - q2 c2, in menu order, and ``build_mechanism`` prices the menu
from those areas without clipping and makes the items and the record
once.  It takes the structure as the solver returns it, a kind A-E with
its fields in the frame it was solved in: one solved with the goods
exchanged is built on the support read with the goods exchanged, and
recorded as its mirror F, G or H.  The nets come from the parameters,
not from t, so they keep their digits where they are tiny against q.c.
Lottery prices come from utility continuity across the exclusion
boundary (t = c2 + p_a1 + a1 c1).  In u = z - c on [0, b1] x [0, b2]
every region is a polygon whose vertices are the structure's own
parameters (the roof points P and Q, the kinks m_i, the edge prices p_a_i
and the bundle offset p), so each area is a short polynomial in them.  The
forms hold on the geometry ``solve`` produces: a lottery line
u2 = p_a1 - a1 u1 enters through the left edge below the top, and kind A's
roof points satisfy P1 <= Q1 and Q2 <= P2.  ``expected_revenue`` prices
any menu from its best-response polygons on the unit square; the verifier
uses it in its menu search and its stationarity check.
"""
from __future__ import annotations

import math

from .geometry import best_response_regions
from .types import (
    NULL_ITEM,
    MenuItem,
    Mechanism,
    Rectangle,
    SolveParams,
    Structure,
    StructureKind,
)

Menu = tuple[MenuItem, ...]
#: One menu item as (q1, q2, t), the area of its best-response region and
#: its net price t - q1 c1 - q2 c2, formed from the structure's parameters.
Row = tuple[float, float, float, float, float]

K = StructureKind


class IncompleteParams(ValueError):
    """The structure parameters lack a field the requested kind needs."""


def _kind_a(c1, c2, b1, b2, p_a1, p_a2, a1, a2, p, P, Q) -> tuple[Row, ...]:
    # null pentagon (0, 0), (p_a2, 0), Q, P, (0, p_a1); the lotteries
    # left of P and below Q; the bundle the box northeast of (P1, Q2)
    # less the triangle under the diagonal from P to Q
    P1, P2 = P[0] - c1, P[1] - c2
    Q1, Q2 = Q[0] - c1, Q[1] - c2
    return (
        (0.0, 0.0, 0.0, 0.5 * (p_a2 * Q2 + Q1 * P2 - P1 * Q2 + P1 * p_a1), 0.0),
        (a1, 1.0, c2 + p_a1 + a1 * c1, 0.5 * P1 * (2.0 * b2 - p_a1 - P2), p_a1),
        (1.0, a2, c1 + p_a2 + a2 * c2, 0.5 * Q2 * (2.0 * b1 - p_a2 - Q1), p_a2),
        (1.0, 1.0, c1 + c2 + p, (b1 - P1) * (b2 - Q2) - 0.5 * (Q1 - P1) * (P2 - Q2), p),
    )


def _kind_b(c1, c2, b1, b2, p_a1, a1, m1, p) -> tuple[Row, ...]:
    # the lottery above u2 = p_a1 - a1 u1 left of the kink m1, the bundle
    # right of it above u1 + u2 = p
    under = m1 * p_a1 - 0.5 * a1 * m1 * m1
    corner = 0.5 * (p - m1) ** 2
    return (
        (0.0, 0.0, 0.0, under + corner, 0.0),
        (a1, 1.0, c2 + p_a1 + a1 * c1, m1 * b2 - under, p_a1),
        (1.0, 1.0, c1 + c2 + p, (b1 - m1) * b2 - corner, p),
    )


def _kind_c(c1, c2, b1, b2, p) -> tuple[Row, ...]:
    # the square split by the diagonal u1 + u2 = p, 0 <= p <= b1 + b2
    lo, hi = min(b1, b2), max(b1, b2)
    if p <= lo:
        below = 0.5 * p * p
        above = b1 * b2 - below
    elif p <= hi:
        below, above = lo * (p - 0.5 * lo), lo * (b1 + b2 - p - 0.5 * lo)
    else:
        above = 0.5 * (b1 + b2 - p) ** 2
        below = b1 * b2 - above
    return (0.0, 0.0, 0.0, below, 0.0), (1.0, 1.0, c1 + c2 + p, above, p)


def _kind_d(c1, c2, b1, b2, p_a1, a1, m1, p) -> tuple[Row, ...]:
    # the lottery above u2 = p_a1 - a1 u1 left of the cut u1 = p, the
    # bundle right of it, priced by continuity across the cut
    # z1 = c1 + p: t_bundle = t_a1 + (1 - a1)(c1 + p), net of the corner
    # p_a1 + (1 - a1) p; the lottery line meets u2 = 0 at m1, which the
    # solver admits up to a rounding tolerance past the cut
    t_a1 = c2 + p_a1 + a1 * c1
    m = min(m1, p)
    under = m * p_a1 - 0.5 * a1 * m * m
    return (
        (0.0, 0.0, 0.0, under, 0.0),
        (a1, 1.0, t_a1, p * b2 - under, p_a1),
        (1.0, 1.0, t_a1 + (1.0 - a1) * (c1 + p), (b1 - p) * b2, p_a1 + (1.0 - a1) * p),
    )


def _kind_e(c1, c2, b1, b2) -> tuple[Row, ...]:
    # good 2 to every type, and the bundle right of the cut u1 = (b1 - c1)/2
    half = 0.5 * b2
    return (
        (0.0, 1.0, c2, half * (b1 - c1), 0.0),
        (1.0, 1.0, c2 + 0.5 * (c1 + b1), half * (b1 + c1), 0.5 * (b1 - c1)),
    )


#: Each kind's builder and the ``SolveParams`` fields it takes after the
#: support's c1, c2, b1, b2.
_BUILDERS = {
    K.A: (_kind_a, ("p_a1", "p_a2", "a1", "a2", "p", "P", "Q")),
    K.B: (_kind_b, ("p_a1", "a1", "m1", "p")),
    K.C: (_kind_c, ("p",)),
    K.D: (_kind_d, ("p_a1", "a1", "m1", "p")),
    K.E: (_kind_e, ()),
}

#: Where the revenue's sum overflows, the prices are summed in units of
#: this power of 2: a support is solved with b1 + b2 below 4^20, so its
#: region areas stay below 2^80.
_PRICE_UNIT = 2.0**128


def _rows(structure: Structure, rect: Rectangle) -> tuple[Row, ...]:
    """The builder's rows for the structure, run on the support in the
    frame the structure was solved in."""
    kind, fields, swap = structure
    builder, names = _BUILDERS[kind]
    values = list(map(fields.get, names))
    if None in values:
        raise IncompleteParams(f"kind {kind.value} requires parameters {names}")
    if swap:
        return builder(rect.c2, rect.c1, rect.b2, rect.b1, *values)
    return builder(rect.c1, rect.c2, rect.b1, rect.b2, *values)


def _revenue(rows: tuple[Row, ...], area: float) -> float:
    total = sum([t * a for _, _, t, a, _ in rows])
    if total == math.inf:  # t * a overflows near the top of the float range
        return sum([t / _PRICE_UNIT * a for _, _, t, a, _ in rows]) / area * _PRICE_UNIT
    return total / area


def expected_revenue(menu: Menu, rect: Rectangle) -> float:
    """Expected payment of any menu under the uniform density: each price
    times the area of its best-response polygon on the unit square, which
    is the probability the buyer picks it, with each region placed by the
    nets read off the prices."""
    return sum(item.t * region.area() for item, region in zip(menu, best_response_regions(rect, menu)))


def build_mechanism(structure: Structure, rect: Rectangle, lam: float = 1.0) -> Mechanism:
    """Assemble the full record of a structure as the solver returns it:
    the menu, its net prices, and its revenue from the closed-form region
    areas.  The kind's builder runs on the support in the frame the
    structure was solved in.  With ``swap``, the items take their
    allocations back exchanged, and the record takes the mirror kind and
    the mirrored parameters.  With lam, it makes
    ``build_mechanism(structure, rect).scaled(lam)`` once.
    """
    kind, fields, swap = structure
    rows = _rows(structure, rect)
    menu, nets = [], []
    for q1, q2, t, _, net in rows:
        t = lam * t
        menu.append(NULL_ITEM if t == 0.0 and q1 == q2 == 0.0 else MenuItem(q2, q1, t) if swap else MenuItem(q1, q2, t))
        nets.append(lam * net)
    params = SolveParams.mirrored(**fields) if swap else SolveParams(**fields)
    params = params if lam == 1.0 else params.scaled(lam)
    kind = kind.swapped() if swap else kind
    return Mechanism(kind, params, tuple(menu), lam * _revenue(rows, rect.area), tuple(nets))
