"""Optimal menus for the symmetric linear-density family.

Each valuation is drawn independently with density f(z) = 2z/(2c+1) on
[c, c+1].  The optimal menu keeps the four-item structure with one sloped
boundary segment per side; three balance equations (transported mass of
the boundary segment, its first moment, and the mass balance of the
bundle region) pin down the parameters (p_a1, a1, P1).  The revenue's
best-response regions follow from the menu's prices, with no clipping.

The equations are polynomial.  At a fixed kink P1 the first two are
quadratics in A0 = c + p_a1 + a1 c whose resultant is a quadratic in
a1^2, so (p_a1, a1) follow in closed form; the bundle-region balance is
then a function of P1 alone, whose root on (c, c + 1] the solver's
bracketed root finder resolves to the rounding floor.  ``_balance_at(c)``
builds that function once per solve, with its terms in c alone formed
before the search.  ``linear_revenue`` reads its prices straight from
the solution and builds no menu.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .solver import NoRoot, _root_in_bracket
from .types import NULL_ITEM, MenuItem, _set

#: Largest lower endpoint for which the sloped-boundary structure holds.
#: Here the solved slope a1 is 1.0000012, just past 1: menu() and
#: linear_revenue clip it to 1, so the sloped segment is parallel to the
#: bundle boundary and linear_revenue prices the menu on its a = 1 (pure
#: bundling) branch.
C_MAX = 0.250116

_SQRT06 = math.sqrt(0.6)

# The kink bracket starts this far above c.  For c > 0, as P1 nears c the
# boundary segment shrinks, a1 grows like 1/(P1 - c), and below about 1e-8
# the bundle-region balance is rounding noise; at c = 0 the boundary stays
# flat (a1 = 0) at every kink.  From here to c + 1 the balance changes sign
# once, from negative to positive, on a 200-point grid of (0, C_MAX], at c
# down to 1e-12, and at c = 0 (tests/test_linear.py checks 200 kinks each).
_KINK_OFFSET = 1e-6


class OutOfRange(ValueError):
    """Lower endpoint outside the supported interval [0, C_MAX]."""


class NoConvergence(RuntimeError):
    """The balance equations have no root in the kink bracket."""


def _check_c(c: float) -> None:
    """Refuse a lower endpoint outside [0, C_MAX], NaN and inf included."""
    if not math.isfinite(c):
        raise OutOfRange(f"c must be finite, got {c!r}")
    if c < 0.0 or c > C_MAX:
        raise OutOfRange(f"c={c!r} outside [0, {C_MAX}]")


@dataclass(frozen=True, init=False)
class LinearSolution:
    """Solved menu parameters for one family member.

    The menu is symmetric: the sloped boundary on the other side uses the
    same (p_a1, a1) and the kink points mirror, Q = (P2, P1).  Like the
    records in types.py, it sets its ``__dict__`` in one step.
    """

    c: float
    p_a1: float
    a1: float
    P1: float
    P2: float
    p: float

    def __init__(self, c: float, p_a1: float, a1: float, P1: float, P2: float, p: float) -> None:
        _set(self, "__dict__", {"c": c, "p_a1": p_a1, "a1": a1, "P1": P1, "P2": P2, "p": p})

    @property
    def t_a1(self) -> float:
        """Price of the partial item with allocation (a1, 1)."""
        return self.c * (1.0 + self.a1) + self.p_a1

    def menu(self) -> tuple[MenuItem, ...]:
        """Menu items; allocation components are clipped to [0, 1]."""
        a = min(max(self.a1, 0.0), 1.0)
        return (
            NULL_ITEM,
            MenuItem(a, 1.0, self.t_a1),
            MenuItem(1.0, a, self.t_a1),
            MenuItem(1.0, 1.0, self.p),
        )

    def to_dict(self) -> dict[str, float]:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# balance equations (all polynomial in their arguments, written in the
# unnormalized scale where the density carries no 1/(2c+1)^2 factor)


def _balance_at(c: float) -> Callable[[float], float]:
    """The bundle region's mass balance (edge, interior, and the add-back
    triangle below the bundle boundary) at lower endpoint c, as a function
    of the kink P1, with (p_a1, a1) taken from ``_boundary_branch``.  The
    terms that depend on c alone are formed once, here."""
    k = (c + 1.0) ** 2
    s = 2.0 * c + 1.0
    ss = s * s
    edge_k = 2.0 * (2.0 * k / s)

    def balance(P1: float) -> float:
        pa, a = _boundary_branch(c, P1)
        P2 = c + pa + a * c - a * P1
        p = P1 + P2
        onem = (k - P1 * P1) / s
        # the antiderivative ((p^2 - P1^2) z^2 - (4p/3) z^3 + z^4/2) / s^2,
        # taken between P1 and P2
        w = p * p - P1 * P1
        f = 4.0 * p / 3.0
        hi = (w * P2 * P2 - f * P2**3 + 0.5 * P2**4) / ss
        lo = (w * P1 * P1 - f * P1**3 + 0.5 * P1**4) / ss
        return edge_k * onem + -5.0 * onem * onem + 5.0 * (hi - lo)

    return balance


def _boundary_branch(c: float, P1: float) -> tuple[float, float]:
    """(p_a1, a1) at which the first two balance equations, the boundary
    segment's transported mass M and its first moment E about z1 = c, both
    vanish for a kink at P1 > c.

    With s = P1 - c and A0 = c + p_a1 + a1 c, M is m0 + m1 A0 - m2 A0^2
    and E is s^2 times another quadratic in A0.  In both, the A0^2
    coefficient is free of a1, the A0 coefficient is odd in a1 and the
    constant is even, so their resultant in A0 is a quadratic
    q2 x^2 + q1 x + q0 in x = a1^2.  The solution branch is its small
    root; A0 is then the larger root of M's quadratic, the one where E
    vanishes too.
    Every coefficient is written in s, so nothing cancels as P1 nears c
    or a1 nears 0.
    """
    s = P1 - c
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    s6 = s5 * s
    k = (c + 1.0) ** 2
    q0 = 16.0 * (c * c * k * (3.0 * c + 2.0 * s)) ** 2 / 9.0
    q1 = (
        -s * s * k
        * ((((((3720.0 * c + 13416.0 * s) * c + 20304.0 * s2) * c + 16160.0 * s3) * c
            + 6960.0 * s4) * c + 1500.0 * s5) * c + 125.0 * s6)
        / 27.0
    )
    q2 = (
        s**4
        * ((((((1350.0 * c + 4660.0 * s) * c + 6614.0 * s2) * c + 4840.0 * s3) * c
            + 1870.0 * s4) * c + 350.0 * s5) * c + 25.0 * s6)
        / 54.0
    )
    x = 2.0 * q0 / (-q1 + math.sqrt(q1 * q1 - 4.0 * q0 * q2))
    a = math.sqrt(x)
    m2 = (2.0 * c + 10.0 * s) * c + 5.0 * s2
    m1 = 4.0 * a * (((3.0 * c + 15.0 * s) * c + 15.0 * s2) * c + 5.0 * s3) / 3.0
    m0 = k * ((2.0 * c + 6.0 * s) * c + 3.0 * s2) - 0.5 * x * (
        (((4.0 * c + 20.0 * s) * c + 30.0 * s2) * c + 20.0 * s3) * c + 5.0 * s4
    )
    a0 = (m1 + math.sqrt(m1 * m1 + 4.0 * m2 * m0)) / (2.0 * m2)
    return a0 - c - a * c, a


def solve_linear(c: float) -> LinearSolution:
    """Solve the balance equations for the linear-density family.

    Parameters
    ----------
    c : float
        Lower endpoint of the support, in [0, C_MAX].  The kink P1 is the
        root of the bundle-region balance between just above c and c + 1,
        found by a bracketed Brent-Dekker search (about 10 evaluations,
        8-15 over [0, C_MAX], of the one kernel ``_balance_at(c)`` builds
        for the solve); at each P1 the other two balance equations give
        (p_a1, a1) in closed form.  At c = 0, where the boundary is flat
        (a1 = 0) and the balance has two positive roots, it takes the
        published one on [sqrt(0.6), 1 + sqrt(0.6)] as the bundle price.

    Returns
    -------
    LinearSolution
        Parameters (p_a1, a1, P1, P2, p) with p = P1 + P2 the bundle
        price and t_a1 = c*(1+a1) + p_a1 the partial-item price.

    Raises
    ------
    OutOfRange
        If c is outside [0, C_MAX].
    NoConvergence
        If the bundle-region balance has no sign change over the bracket;
        the message names the bracket and both end balances.
    """
    _check_c(c)
    balance = _balance_at(c)
    as_price = c == 0.0
    lo, hi = (_SQRT06, 1.0 + _SQRT06) if as_price else (c + _KINK_OFFSET, c + 1.0)
    try:
        x = _root_in_bracket(balance, lo, hi, balance(lo), balance(hi))
    except NoRoot as exc:
        raise NoConvergence(f"no {'price' if as_price else 'kink'} root at c={c!r}: {exc}") from None
    if as_price:
        return LinearSolution(c=0.0, p_a1=_SQRT06, a1=0.0, P1=x - _SQRT06, P2=_SQRT06, p=x)
    pa, a = _boundary_branch(c, x)
    P2 = c + pa - a * (x - c)
    return LinearSolution(c=c, p_a1=pa, a1=a, P1=x, P2=P2, p=x + P2)


def _xy_moment(vs: tuple[tuple[float, float], ...]) -> float:
    """Exact integral of z1*z2 over the CCW polygon vs, by the boundary formula."""
    total = 0.0
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        dx, dy = x1 - x0, y1 - y0
        inner = (
            x0 * x0 * y0
            + 0.5 * (x0 * x0 * dy + 2.0 * x0 * dx * y0)
            + (2.0 * x0 * dx * dy + dx * dx * y0) / 3.0
            + 0.25 * dx * dx * dy
        )
        total += 0.5 * dy * inner
    return total


def linear_revenue(sol: LinearSolution, c: float) -> float:
    """Expected revenue of the menu under the linear density.

    The best-response regions come from the menu's prices, with no
    clipping.  In u = z - c, lottery (a, 1) sells on a*u1 + u2 >= pa,
    pa = t_a1 - c(1 + a), and the bundle on u1 + u2 >= p - 2c; the two
    lines cross at the kink P = (c + k, c + pa - a k), k = (p - 2c - pa)
    / (1 - a), mirrored to Q = (P2, P1).  Lottery (a, 1) sells on the
    quadrilateral (c, c + pa), P, (P1, c + 1), (c, c + 1), lottery (1, a)
    on its mirror, and the bundle on the pentagon P, Q, (c + 1, P1),
    (c + 1, c + 1), (P1, c + 1).  This holds while P lies in the support
    above the diagonal, as on every solved menu and small moves of its
    prices.  The slope is a = a1 clipped to [0, 1], as menu() clips it,
    and no menu is built.  Where a = 1 (at c = C_MAX), lotteries and
    bundle share the allocation (1, 1): the menu is pure bundling at
    min(t_a1, p).

    Parameters
    ----------
    sol : LinearSolution
        Menu parameters; only its prices (p_a1, a1, p) are read.
    c : float
        Lower endpoint of the support, in [0, C_MAX].

    Returns
    -------
    float
        Exact moments of the density 4*z1*z2/(2c+1)^2 over the regions.

    Raises
    ------
    ValueError
        If a < 1 and the menu leaves that layout: the kink outside
        c <= P1 <= P2 <= c + 1, or the edge price pa outside [0, 1]
        (which a NaN, negative or infinite price does); if a = 1 and
        t_a1 or p is NaN, negative or infinite.
    """
    _check_c(c)
    a = min(max(sol.a1, 0.0), 1.0)
    t, p = sol.t_a1, sol.p
    scale = 4.0 / (2.0 * c + 1.0) ** 2
    if a == 1.0:
        # min(t, p) would drop a NaN price
        if not (0.0 <= t < math.inf and 0.0 <= p < math.inf):
            raise ValueError(f"menu prices must be finite and >= 0 at c={c!r}: t_a1={t!r}, p={p!r}")
        m = min(t, p)  # the square's moment is 1/scale; less the unsold triangle
        return m * (1.0 - scale * _xy_moment(((c, c), (m - c, c), (c, m - c))))
    pa = t - c * (1.0 + a)
    k = (p - 2.0 * c - pa) / (1.0 - a)
    P1, P2, top = c + k, c + pa - a * k, c + 1.0
    if not (c <= P1 <= P2 <= top and 0.0 <= pa <= 1.0):
        raise ValueError(f"menu outside the solved layout at c={c!r}: kink ({P1!r}, {P2!r}), pa={pa!r}")
    quad = _xy_moment(((c, c + pa), (P1, P2), (P1, top), (c, top)))
    pent = _xy_moment(((P1, P2), (P2, P1), (top, P1), (top, top), (P1, top)))
    return scale * (2.0 * t * quad + p * pent)
