"""Decision procedure for the revenue-optimal selling structure.

Given a value rectangle, the solver classifies it into a phase region,
then pins down the structure parameters.  Each candidate structure's
defining residual is the transformed measure of the top-right bundle
region, which must vanish at the optimum, written out in closed form;
partial lotteries additionally require their edge shuffle to vanish,
which the closed-form slopes and spans encode exactly.  The c1 = 0
one-lottery residual is linear, the one-lottery and ramp residuals are
cubics solved by companion-matrix eigenvalues, and the edge prices of
the two-lottery structure are found by (nested) bisection.  SmallSmall
structures are solved in the edge offsets D_i rather than in the edge
prices, which keeps them accurate at small corner offsets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial

from numpy.polynomial import polynomial as npoly

from .mechanism import build_mechanism
from .types import Mechanism, Rectangle, SolveParams, StructureKind

#: Relative bracket width at which bisection stops.  Resolving roots to the
#: rounding floor keeps the derived parameters accurate even where the
#: parametrization amplifies root error by the reciprocal corner offset,
#: because the residual slope at the root carries the same amplification.
BISECT_REL_TOL = 4e-16
BISECT_MAX_ITER = 200
#: A root this close outside a bracket end, relative to the interval
#: magnitude, lies on the end: where a structure puts its root exactly on
#: the end, rounding moves it to either side.
ROOT_END_REL_TOL = 1e-10
#: Companion eigenvalues this close to the real axis and to each other,
#: relative to the interval magnitude, form one cluster: the eigenvalue
#: solver splits a double root into a pair about 1e-8 apart.
ROOT_MERGE_REL_TOL = 1e-6
#: A cluster without a sign change is a double root where the polynomial's
#: extremum is within this many rounding units of sum |a_i| |x|^i.
ROOT_DOUBLE_ULPS = 16.0


class NoRoot(RuntimeError):
    """No root of the residual exists in the admissible bracket.

    The solver's one error: ``solve`` lets it escape when a structure it
    needs has no admissible root, and the CLI maps it to exit code 3.
    """


class PhaseRegion(Enum):
    SMALL_SMALL = "SmallSmall"
    SMALL_LARGE = "SmallLarge"
    SMALL_VERY_LARGE = "SmallVeryLarge"
    LARGE_SMALL = "LargeSmall"
    VERY_LARGE_SMALL = "VeryLargeSmall"
    BOTH_LARGE = "BothLarge"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CriticalConstants:
    """Bracket endpoints of the structure sweeps.

    r_i is the edge price at which the two partial-lottery corner points
    coincide; p_a_i_star is the edge price at which the lottery weight
    a_i reaches 1; p_star is the bundle-only critical price.
    """

    r1: float
    r2: float
    p_a1_star: float
    p_a2_star: float
    p_star: float


def _edge_offsets(c1: float, c2: float, b1: float, b2: float) -> tuple[float, float]:
    """Edge offsets D1 = c2 - 2 b2 + 3 p_a1 at r1 and at p_a1_star; those of
    good 2 are the mirror's.

    The SmallSmall structures are solved in D1 and D2, not in the edge
    prices: at a small corner offset the price sits next to (2 b2 - c2)/3,
    and forming D1 from it would cancel all but a few of its digits.
    """
    lo = 2.0 * c1 * (2.0 * b2 + 3.0 * c2) / (2.0 * b1 + 3.0 * c1)
    hi = (2.0 * math.sqrt(2.0 * c1 * (2.0 * c1 + 3.0 * (b2 + c2))) - 4.0 * c1) / 3.0
    return lo, hi


def critical_constants(rect: Rectangle) -> CriticalConstants:
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    r1, p_a1_star = ((2.0 * b2 - c2 + d) / 3.0 for d in _edge_offsets(c1, c2, b1, b2))
    r2, p_a2_star = ((2.0 * b1 - c1 + d) / 3.0 for d in _edge_offsets(c2, c1, b2, b1))
    s = c1 + c2
    p_star = (math.sqrt(s * s + 6.0 * b1 * b2) - s) / 3.0
    return CriticalConstants(r1, r2, p_a1_star, p_a2_star, p_star)


def classify(rect: Rectangle) -> PhaseRegion:
    """Phase region of the corner offsets relative to the side lengths.

    Regions are checked in a fixed order; boundaries belong to the region
    listed first, except that the band of intermediate c2 values is
    half-open at its upper threshold (the deterministic single-good
    structure takes over exactly at the threshold).
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    # the ratio first: at a zero offset the threshold is exactly 2 b
    if (c1 <= b1 and c2 <= 2.0 * b2 * ((b1 + c1) / (b1 + 3.0 * c1))) or (
        c2 <= b2 and c1 <= 2.0 * b1 * ((b2 + c2) / (b2 + 3.0 * c2))
    ):
        return PhaseRegion.SMALL_SMALL
    if c1 <= b1:
        hi = math.inf if c1 >= b1 else 2.0 * b2 * (b1 / (b1 - c1)) ** 2
        if c2 < hi:
            return PhaseRegion.SMALL_LARGE
        return PhaseRegion.SMALL_VERY_LARGE
    if c2 <= b2:
        hi = math.inf if c2 >= b2 else 2.0 * b1 * (b2 / (b2 - c2)) ** 2
        if c1 < hi:
            return PhaseRegion.LARGE_SMALL
        return PhaseRegion.VERY_LARGE_SMALL
    return PhaseRegion.BOTH_LARGE


def _bisect(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Bisection of f, valued flo and fhi at the bracket ends, to the
    relative rounding floor of the argument."""
    tol = BISECT_REL_TOL * max(abs(lo), abs(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoRoot(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _feasible_edge(f, lo: float, hi: float) -> float:
    """Largest x with f(x) >= 0, for f decreasing with f(lo) >= 0 > f(hi).

    Returns the feasible side of the final bracket, so f(result) >= 0 holds.
    """
    tol = BISECT_REL_TOL * max(abs(lo), abs(hi))
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def real_roots_in_interval(coeffs: tuple[float, ...] | list[float], lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of a polynomial (ascending coefficients, degree <= 4).

    Trailing zero coefficients are dropped and the rest is solved by the
    eigenvalues of its companion matrix, clustered by ``ROOT_MERGE_REL_TOL``.
    A cluster whose bracket ends differ in sign holds one root, bisected to
    the rounding floor.  Otherwise its extremum (the bisected root of the
    derivative) is a double root if zero to ``ROOT_DOUBLE_ULPS``, splits two
    roots if of the opposite sign, and marks a complex pair if not.  Roots
    within ``ROOT_END_REL_TOL`` outside an end are clamped onto it.
    """
    if len(coeffs) > 5:
        raise ValueError(f"degree at most 4 supported, got {len(coeffs) - 1}")
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    if hi < lo or len(coeffs) < 2:
        return []
    poly = partial(_horner, coeffs)
    slope = partial(_horner, [i * a for i, a in enumerate(coeffs)][1:])
    mag = max(abs(lo), abs(hi))
    near, end = ROOT_MERGE_REL_TOL * mag, ROOT_END_REL_TOL * mag
    estimates = sorted(
        float(r.real)
        for r in npoly.polyroots(coeffs)
        if abs(r.imag) <= near and lo - near <= r.real <= hi + near
    )
    groups: list[list[float]] = []  # [first, last] of each run of close estimates
    for x in estimates:
        if groups and x - groups[-1][1] <= near:
            groups[-1][1] = x
        else:
            groups.append([x, x])
    roots: list[float] = []
    for first, last in groups:
        a, b = first - 0.5 * near, last + 0.5 * near
        fa, fb, sa, sb = poly(a), poly(b), slope(a), slope(b)
        found: list[float] = []
        if fa <= 0.0 <= fb or fb <= 0.0 <= fa:
            found = [_bisect(poly, a, b, fa, fb)]
        elif (sa > 0.0) != (sb > 0.0):
            x = _bisect(slope, a, b, sa, sb)
            fx = poly(x)
            scale = _horner([abs(c) for c in coeffs], abs(x))
            if abs(fx) <= ROOT_DOUBLE_ULPS * sys.float_info.epsilon * scale:
                found = [x]
            elif (fx > 0.0) != (fa > 0.0):
                found = [_bisect(poly, a, x, fa, fx), _bisect(poly, x, b, fx, fb)]
        roots.extend(min(max(x, lo), hi) for x in found if lo - end <= x <= hi + end)
    return roots


def residual_W(rect: Rectangle, p_a1: float, p_a2: float) -> float:
    """Scaled deficit of the bundle region for the two-lottery structure.

    Equals -b1 b2 D1 D2 times the transformed measure of the region
    northeast of the two corner points and the price diagonal, where
    D_i = c_{-i} - 2 b_{-i} + 3 p_a_i are positive inside the sweep
    bracket.  The optimum is the zero of this residual.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return _residual_w(rect, c2 - 2.0 * b2 + 3.0 * p_a1, c1 - 2.0 * b1 + 3.0 * p_a2)


def _residual_w(rect: Rectangle, d1: float, d2: float) -> float:
    """``residual_W`` in the edge offsets."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    n1 = b1 * d1 - 4.0 * c1 * (b2 + c2 - d1) / 3.0
    n2 = b2 * d2 - 4.0 * c2 * (b1 + c1 - d2) / 3.0
    t1 = ((4.0 * b2 - 2.0 * c2 - d1) * d2 - 8.0 * c2 * (b1 + c1 - d2)) / 3.0
    t2 = ((4.0 * b1 - 2.0 * c1 - d2) * d1 - 8.0 * c1 * (b2 + c2 - d1)) / 3.0
    return (
        3.0 * n1 * n2
        - (c2 + b2) * n1 * d2
        - (c1 + b1) * n2 * d1
        - 0.375 * t1 * t2
    )


def solve_pa2_given_pa1(rect: Rectangle, p_a1: float) -> float:
    """Edge price of good 2 putting both corner points on one diagonal.

    The mismatch (P1 + P2) - (Q1 + Q2) is strictly increasing in p_a2 and
    tends to -inf at the lower bracket end, so a root exists iff the
    mismatch at p_a2_star is nonnegative; otherwise NoRoot is raised
    (the good-2 lottery weight would have to exceed 1).
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    if c2 <= 0.0:
        raise ValueError("solve_pa2_given_pa1 requires c2 > 0")
    d1 = c2 - 2.0 * b2 + 3.0 * p_a1
    if d1 <= 0.0:
        raise ValueError(f"p_a1 below the admissible range: {p_a1!r}")
    return (2.0 * b1 - c1 + _match_offset(rect, d1)) / 3.0


def _match_offset(rect: Rectangle, d1: float) -> float:
    """``solve_pa2_given_pa1`` in the edge offsets: D2 for a given D1."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    k = 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1) + (4.0 * (b2 - b1) - 2.0 * (c2 - c1) - d1) / 6.0
    lo, hi = 0.0, _edge_offsets(c2, c1, b2, b1)[1]

    def mismatch(d2: float) -> float:
        return k + d2 / 6.0 - 4.0 * c2 * (b1 + c1 - d2) / (3.0 * d2)

    f_hi = mismatch(hi)
    if f_hi <= 0.0:
        if f_hi > -1e-9 * (b1 + b2):
            return hi
        raise NoRoot("diagonal matching requires a lottery weight above 1")
    # mismatch -> -inf at lo+, increasing: bisect without evaluating at lo
    tol = BISECT_REL_TOL * hi
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if mismatch(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _best_by_revenue(candidates: list[Mechanism]) -> Mechanism | None:
    return max(candidates, key=lambda m: m.revenue, default=None)


# ---------------------------------------------------------------------------
# Structures with both corner offsets zero (closed forms)
# ---------------------------------------------------------------------------

def solve_zero_corner(rect: Rectangle) -> Mechanism:
    """Closed-form solution when both corner offsets vanish.

    Side ratio at most 2 gives the two-lottery structure with edge prices
    2 b_{-i}/3; above 2 the shorter good keeps its lottery and the longer
    one is sold only inside the bundle.
    """
    if rect.c1 != 0.0 or rect.c2 != 0.0:
        raise ValueError("solve_zero_corner requires c1 == c2 == 0")
    b1, b2 = rect.b1, rect.b2
    if max(b1, b2) <= 2.0 * min(b1, b2):
        s = math.sqrt(2.0 * b1 * b2)
        p = (2.0 * (b1 + b2) - s) / 3.0
        params = SolveParams(
            p_a1=2.0 * b2 / 3.0,
            p_a2=2.0 * b1 / 3.0,
            a1=0.0,
            a2=0.0,
            m1=0.0,
            m2=0.0,
            p=p,
            P=((2.0 * b1 - s) / 3.0, 2.0 * b2 / 3.0),
            Q=(2.0 * b1 / 3.0, (2.0 * b2 - s) / 3.0),
        )
        return build_mechanism(StructureKind.A, params, rect)
    if b1 > 2.0 * b2:
        p = 0.5 * b1 + b2 / 3.0
        params = SolveParams(
            p_a1=2.0 * b2 / 3.0,
            a1=0.0,
            m1=0.0,
            p=p,
            P=(p - 2.0 * b2 / 3.0, 2.0 * b2 / 3.0),
            Q=(p, 0.0),
        )
        return build_mechanism(StructureKind.B, params, rect)
    return solve_zero_corner(rect.swapped()).swapped()


# ---------------------------------------------------------------------------
# Small/Small region
# ---------------------------------------------------------------------------

def _geometric_w_residual(
    rect: Rectangle, p1: float, p2: float, q1: float, q2: float
) -> float:
    """-b1 b2 times the transformed measure of the region northeast of the
    corner points P, Q and the straight cut between them."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    w1 = c1 + b1 - p1
    h2 = c2 + b2 - q2
    return (
        3.0 * w1 * h2
        - 1.5 * (p2 - q2) * (q1 - p1)
        - (c2 + b2) * w1
        - (c1 + b1) * h2
    )


def _kind_a_params(rect: Rectangle, d1: float, d2: float) -> SolveParams:
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    m1 = 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1)
    m2 = 4.0 * c2 * (b1 + c1 - d2) / (3.0 * d2)
    big_p = (c1 + m1, c2 + (4.0 * b2 - 2.0 * c2 - d1) / 6.0)
    big_q = (c1 + (4.0 * b1 - 2.0 * c1 - d2) / 6.0, c2 + m2)
    p = big_p[0] + big_p[1] - c1 - c2
    return SolveParams(
        p_a1=(2.0 * b2 - c2 + d1) / 3.0, p_a2=(2.0 * b1 - c1 + d2) / 3.0,
        a1=min(1.0, 0.5 * d1 / m1), a2=min(1.0, 0.5 * d2 / m2),
        m1=m1, m2=m2, p=p, P=big_p, Q=big_q,
    )


def _solve_ss_kind_a(rect: Rectangle) -> Mechanism | None:
    """Two-lottery structure: nested bisection over the edge offsets."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    lo, hi = _edge_offsets(c1, c2, b1, b2)
    lo2, hi2 = _edge_offsets(c2, c1, b2, b1)
    if lo > hi or lo2 > hi2:
        return None
    m2_at_cap = 4.0 * c2 * (b1 + c1 - hi2) / (3.0 * hi2)

    def feasibility(d1: float) -> float:
        """Diagonal mismatch at the capped D2; >= 0 means solvable."""
        m1 = 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1)
        return m1 + (4.0 * (b2 - b1) - 2.0 * (c2 - c1) - d1 + hi2) / 6.0 - m2_at_cap

    if feasibility(lo) < 0.0:
        return None
    if feasibility(hi) < 0.0:
        hi = _feasible_edge(feasibility, lo, hi)

    def g(d1: float) -> float:
        return _residual_w(rect, d1, _match_offset(rect, d1))

    g_lo = g(lo)
    g_hi = g(hi)
    if g_hi < 0.0:
        return None
    if g_lo >= 0.0:
        # the residual starts nonnegative only when the root sits at the
        # bracket start itself (coincident corner points)
        if g_lo > 1e-9 * (rect.area * rect.area):
            return None
        root = lo
    else:
        root = _bisect(g, lo, hi, g_lo, g_hi)
    params = _kind_a_params(rect, root, _match_offset(rect, root))
    tol = 1e-9 * (rect.b1 + rect.b2)
    if params.P[0] > params.Q[0] + tol or params.Q[1] > params.P[1] + tol:
        return None
    return build_mechanism(StructureKind.A, params, rect)


def _kind_b_cubic(rect: Rectangle) -> tuple[float, float, float, float]:
    """Ascending coefficients of the one-lottery structure's residual cubic
    in D1 (the residual equals -1 times the bundle-region measure up to
    a positive scale)."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return (
        -8.0 * b2 * c1 * (b2 + c2) / 3.0,
        (6.0 * b1 * b2 - 4.0 * b2 * b2 + 10.0 * b2 * c1 + c2 * c2) / 6.0,
        b2 / 3.0,
        -1.0 / 24.0,
    )


def _kind_b_params(rect: Rectangle, d1: float) -> SolveParams | None:
    """Parameters of the one-lottery structure; None if geometry is invalid."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    if d1 <= 0.0 or d1 >= b2 + c2:  # the edge price reaches b2
        return None
    if c1 > 0.0:
        m1 = 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1)
        a1 = min(1.0, 0.5 * d1 / m1)
    else:
        a1, m1 = 0.0, 0.0
    half = (4.0 * b2 - 2.0 * c2 - d1) / 6.0
    p = m1 + half
    big_p = (c1 + m1, c2 + half)
    tol = 1e-9 * (b1 + b2)
    # on the SmallSmall curve P[1] = c2, which rounding misses by an ulp
    floor = c2 - 4.0 * sys.float_info.epsilon * max(c2, b2)
    if not (0.0 <= p <= b1 + tol and floor <= big_p[1] <= rect.z2_max + tol):
        return None
    if big_p[0] > c1 + p + tol:
        return None
    p_a1 = (2.0 * b2 - c2 + d1) / 3.0
    return SolveParams(p_a1=p_a1, a1=a1, m1=m1, p=p, P=big_p, Q=(c1 + p, c2))


def _solve_ss_kind_b(rect: Rectangle) -> Mechanism | None:
    lo, hi = _edge_offsets(rect.c1, rect.c2, rect.b1, rect.b2)
    if lo > hi:
        return None
    roots = real_roots_in_interval(_kind_b_cubic(rect), lo, hi)
    params = [sp for sp in (_kind_b_params(rect, root) for root in roots) if sp is not None]
    return _best_by_revenue([build_mechanism(StructureKind.B, sp, rect) for sp in params])


def _solve_ss_general(rect: Rectangle) -> Mechanism:
    """Both corner offsets positive: try the structures in fixed order."""
    mech = _solve_ss_kind_a(rect) or _solve_ss_kind_b(rect)
    if mech is not None:
        return mech
    swapped = _solve_ss_kind_b(rect.swapped())
    if swapped is not None:
        return swapped.swapped()
    return solve_bundling(rect)


def _solve_ss_c1_zero(rect: Rectangle) -> Mechanism:
    """Small/Small with c1 = 0 < c2: the good-1 lottery is pinned flat.

    The flat edge price is (2 b2 - c2)/3 with zero lottery weight, so one
    residual equation remains: sweep D2 for the two-lottery structure,
    falling back to the one-lottery structure, whose bundle offset has a
    closed form, the mirrored cubic, and pure bundling, in that order.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    p_a1 = (2.0 * b2 - c2) / 3.0

    def candidate_a(d2: float) -> SolveParams:
        m2 = 4.0 * c2 * (b1 + c1 - d2) / (3.0 * d2)
        big_q = (c1 + (4.0 * b1 - 2.0 * c1 - d2) / 6.0, c2 + m2)
        p = big_q[0] + big_q[1] - c1 - c2
        big_p = (c1 + c2 + p - (c2 + p_a1), c2 + p_a1)
        return SolveParams(
            p_a1=p_a1, p_a2=(2.0 * b1 - c1 + d2) / 3.0, a1=0.0,
            a2=min(1.0, 0.5 * d2 / m2), m1=0.0, m2=m2, p=p, P=big_p, Q=big_q,
        )

    def g(d2: float) -> float:
        sp = candidate_a(d2)
        return _geometric_w_residual(rect, sp.P[0], sp.P[1], sp.Q[0], sp.Q[1])

    tol = 1e-9 * (b1 + b2)
    lo, hi = _edge_offsets(c2, c1, b2, b1)
    if lo <= hi:
        g_lo, g_hi = g(lo), g(hi)
        root = None
        if g_lo >= 0.0:
            # the residual is quadratic in the lengths
            if g_lo <= 1e-9 * rect.area:
                root = lo
        elif g_hi >= 0.0:
            root = _bisect(g, lo, hi, g_lo, g_hi)
        if root is not None:
            params = candidate_a(root)
            # near the bracket start the corner coordinates move at rate
            # ~(m2 + 4 c2/3)/D2 per unit edge offset, so the root resolution
            # leaves a band of that width around P1 = c1 inside which the
            # two-lottery candidate cannot be told from the one-lottery
            # fallbacks; route the band to the fallbacks deterministically
            rate = (abs(params.m2) + 4.0 * c2 / 3.0) / root
            wide = 8.0 * rate * BISECT_REL_TOL * hi + tol
            if params.P[0] >= c1 + wide and params.P[0] <= params.Q[0] - wide:
                return build_mechanism(StructureKind.A, params, rect)

    # one-lottery structure: the flat price puts the vertical boundary at
    # z1 = p - p_a1, and on p_a1 <= p <= b1 the bundle region's measure is
    # linear in the bundle offset, b1 b2 mu(W) = 2 b2 p - b1 b2 - 1.5 p_a1^2
    p = 0.5 * b1 + 0.75 * p_a1 * p_a1 / b2
    if p_a1 <= p <= b1:
        params = SolveParams(
            p_a1=p_a1, a1=0.0, m1=0.0, p=p,
            P=(c1 + p - p_a1, c2 + p_a1), Q=(c1 + p, c2),
        )
        if params.P[0] <= rect.z1_max + tol:
            return build_mechanism(StructureKind.B, params, rect)

    mech = _solve_ss_kind_b(rect.swapped())
    if mech is not None:
        return mech.swapped()
    return solve_bundling(rect)


#: Offsets below this fraction of the own side length leave the structure
#: comparisons inside floating-point noise (revenue gaps of order ratio
#: squared), so they are routed as exact zeros for stable classification.
_ZERO_OFFSET_REL = 1e-10


def solve_small_small(rect: Rectangle) -> Mechanism:
    """Both offset-to-side ratios small: lottery structures with a bundle."""
    c1_zero = rect.c1 <= _ZERO_OFFSET_REL * rect.b1
    c2_zero = rect.c2 <= _ZERO_OFFSET_REL * rect.b2
    if c1_zero and c2_zero:
        if rect.c1 == 0.0 and rect.c2 == 0.0:
            return solve_zero_corner(rect)
        base = solve_zero_corner(Rectangle(0.0, 0.0, rect.b1, rect.b2))
        return build_mechanism(base.kind, base.params, rect)
    if c1_zero:
        snapped = rect if rect.c1 == 0.0 else Rectangle(0.0, rect.c2, rect.b1, rect.b2)
        base = _solve_ss_c1_zero(snapped)
        return base if snapped is rect else build_mechanism(base.kind, base.params, rect)
    if c2_zero:
        return solve_small_small(rect.swapped()).swapped()
    return _solve_ss_general(rect)


# ---------------------------------------------------------------------------
# Small/Large and Small/VeryLarge regions (and mirrors)
# ---------------------------------------------------------------------------

def solve_small_large(rect: Rectangle) -> Mechanism:
    """Intermediate c2 band: ramp-lottery structure or pure bundling.

    The edge price solves a cubic on [(2 b2 - c2)+, b2]; a missing root or
    an implied lottery weight above 1 means the ramp structure does not
    exist there, leaving pure bundling (the ramp structure has bundle
    boundary at z1 = c1 + (b1 - c1)/2).
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    k0 = 2.0 * b1 * b1 * b2 * b2 * c2 - c2 * c2 * b2 * (b1 - c1) ** 2
    k1 = (
        2.0 * b1 * b1 * b2 * b2
        - 4.0 * b1 * b2 * c1 * c2
        - 3.0 * c2 * b2 * (b1 - c1) ** 2
    )
    k2 = 2.0 * c1 * c1 * c2 - 4.0 * b1 * b2 * c1 - 2.25 * b2 * (b1 - c1) ** 2
    k3 = 2.0 * c1 * c1
    roots = real_roots_in_interval((k0, k1, k2, k3), max(2.0 * b2 - c2, 0.0), b2)
    p = 0.5 * (b1 - c1)
    candidates: list[Mechanism] = []
    for p_a1 in roots:
        denom = b1 * b2 - c1 * p_a1
        if denom <= 0.0:
            continue
        a1 = p_a1 * (1.5 * p_a1 + c2) / denom
        if a1 > 1.0:
            continue
        if a1 > 0.0:
            m1 = p_a1 / a1
            if m1 > p + 1e-9 * (b1 + b2):
                continue
        else:
            m1 = b1 * b2 / c2 if c2 > 0.0 else 0.0
        params = SolveParams(p_a1=p_a1, a1=a1, m1=m1, p=p)
        candidates.append(build_mechanism(StructureKind.D, params, rect))
    return _best_by_revenue(candidates) or solve_bundling(rect)


def solve_small_verylarge(rect: Rectangle) -> Mechanism:
    """Very large c2: good 2 sold deterministically, good 1 only in the bundle."""
    params = SolveParams(p=0.5 * (rect.b1 - rect.c1))
    return build_mechanism(StructureKind.E, params, rect)


def solve_large_small(rect: Rectangle) -> Mechanism:
    return solve_small_large(rect.swapped()).swapped()


def solve_verylarge_small(rect: Rectangle) -> Mechanism:
    return solve_small_verylarge(rect.swapped()).swapped()


def solve_bundling(rect: Rectangle) -> Mechanism:
    """Pure bundling at the critical diagonal offset."""
    cc = critical_constants(rect)
    return build_mechanism(StructureKind.C, SolveParams(p=cc.p_star), rect)


_DISPATCH = {
    PhaseRegion.SMALL_SMALL: solve_small_small,
    PhaseRegion.SMALL_LARGE: solve_small_large,
    PhaseRegion.SMALL_VERY_LARGE: solve_small_verylarge,
    PhaseRegion.LARGE_SMALL: solve_large_small,
    PhaseRegion.VERY_LARGE_SMALL: solve_verylarge_small,
    PhaseRegion.BOTH_LARGE: solve_bundling,
}


def solve(rect: Rectangle) -> Mechanism:
    """Optimal mechanism for a uniform density on the given rectangle."""
    return _DISPATCH[classify(rect)](rect)
