"""Decision procedure for the revenue-optimal selling structure.

Given a value rectangle, the solver classifies it into a phase region,
then pins down the structure parameters by one-dimensional bracketed
bisection (nested where two parameters interact).  Each candidate
structure's defining residual is the transformed measure of the
top-right bundle region, which must vanish at the optimum; partial
lotteries additionally require their edge shuffle to vanish, which the
closed-form slopes and spans encode exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import HalfPlane, clip_many, rect_polygon
from .measures import MuBar
from .mechanism import build_mechanism
from .types import Mechanism, Rectangle, SolveParams, StructureKind

#: Relative bracket width at which bisection stops.  Resolving roots to the
#: rounding floor keeps the derived parameters accurate even where the
#: parametrization amplifies root error by the reciprocal corner offset,
#: because the residual slope at the root carries the same amplification.
BISECT_REL_TOL = 4e-16
BISECT_MAX_ITER = 200
SCAN_PANELS = 256
ROOT_DEDUP_REL_TOL = 1e-10


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


def _edge_constants(c1: float, c2: float, b1: float, b2: float) -> tuple[float, float]:
    """(r1, p_a1_star) of the support; (r2, p_a2_star) are those of its mirror."""
    r1 = (2.0 * b2 * (2.0 * b1 + 5.0 * c1) - c2 * (2.0 * b1 - 3.0 * c1)) / (
        3.0 * (2.0 * b1 + 3.0 * c1)
    )
    p_a1_star = (
        (2.0 * b2 - c2) / 3.0
        - 4.0 * c1 / 9.0
        + (2.0 / 9.0) * math.sqrt(2.0 * c1 * (2.0 * c1 + 3.0 * (b2 + c2)))
    )
    return r1, p_a1_star


def critical_constants(rect: Rectangle) -> CriticalConstants:
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    r1, p_a1_star = _edge_constants(c1, c2, b1, b2)
    r2, p_a2_star = _edge_constants(c2, c1, b2, b1)
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
    if (c1 <= b1 and c2 <= 2.0 * b2 * (b1 + c1) / (b1 + 3.0 * c1)) or (
        c2 <= b2 and c1 <= 2.0 * b1 * (b2 + c2) / (b2 + 3.0 * c2)
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


def _bisect(
    f,
    lo: float,
    hi: float,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Bracketed bisection to the relative rounding floor of the argument."""
    tol = BISECT_REL_TOL * max(abs(lo), abs(hi))
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
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


def real_roots_in_interval(coeffs: tuple[float, ...] | list[float], lo: float, hi: float) -> list[float]:
    """Roots of a polynomial (ascending coefficients, degree <= 4) in [lo, hi].

    The interval is scanned in 256 panels for sign changes, each bracketing
    panel is bisected to the relative rounding floor, and roots closer than
    1e-10 of the interval magnitude are merged.  Tangent roots without a
    sign change are not detected by design; the residuals this is used on
    cross zero transversally.
    """
    if len(coeffs) > 5:
        raise ValueError(f"degree at most 4 supported, got {len(coeffs) - 1}")
    if hi < lo:
        return []

    def poly(x: float) -> float:
        acc = 0.0
        for a in reversed(coeffs):
            acc = acc * x + a
        return acc

    roots: list[float] = []
    prev_x = lo
    prev_v = poly(lo)
    if prev_v == 0.0:
        roots.append(lo)
    for k in range(1, SCAN_PANELS + 1):
        x = lo + (hi - lo) * k / SCAN_PANELS
        v = poly(x)
        if v == 0.0:
            roots.append(x)
        elif (prev_v < 0.0 < v) or (v < 0.0 < prev_v):
            roots.append(_bisect(poly, prev_x, x, prev_v, v))
        prev_x, prev_v = x, v
    roots.sort()
    dedup = ROOT_DEDUP_REL_TOL * max(abs(lo), abs(hi))
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > dedup:
            out.append(r)
    return out


def residual_W(rect: Rectangle, p_a1: float, p_a2: float) -> float:
    """Scaled deficit of the bundle region for the two-lottery structure.

    Equals -b1 b2 D1 D2 times the transformed measure of the region
    northeast of the two corner points and the price diagonal, where
    D_i = c_{-i} - 2 b_{-i} + 3 p_a_i are positive inside the sweep
    bracket.  The optimum is the zero of this residual.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    d1 = c2 - 2.0 * b2 + 3.0 * p_a1
    d2 = c1 - 2.0 * b1 + 3.0 * p_a2
    n1 = b1 * d1 - 4.0 * c1 * (b2 - p_a1)
    n2 = b2 * d2 - 4.0 * c2 * (b1 - p_a2)
    t1 = (2.0 * b2 - c2 - p_a1) * d2 - 8.0 * c2 * (b1 - p_a2)
    t2 = (2.0 * b1 - c1 - p_a2) * d1 - 8.0 * c1 * (b2 - p_a1)
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
    m1 = 4.0 * c1 * (b2 - p_a1) / d1
    k = m1 + 0.5 * (2.0 * b2 - c2 - p_a1) - 0.5 * (2.0 * b1 - c1)
    lo = (2.0 * b1 - c1) / 3.0
    hi = critical_constants(rect).p_a2_star

    def mismatch(pa2: float) -> float:
        d2 = c1 - 2.0 * b1 + 3.0 * pa2
        return k + 0.5 * pa2 - 4.0 * c2 * (b1 - pa2) / d2

    f_hi = mismatch(hi)
    if f_hi < 0.0:
        if f_hi > -1e-9 * (b1 + b2):
            return hi
        raise NoRoot("diagonal matching requires a lottery weight above 1")
    if f_hi == 0.0:
        return hi
    # mismatch -> -inf at lo+, increasing: bisect without evaluating at lo
    tol = BISECT_REL_TOL * max(abs(lo), abs(hi))
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if mismatch(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _best_by_revenue(candidates: list[Mechanism]) -> Mechanism:
    return max(candidates, key=lambda m: m.revenue)


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


def _kind_a_params(rect: Rectangle, p_a1: float, p_a2: float) -> SolveParams:
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    d1 = c2 - 2.0 * b2 + 3.0 * p_a1
    d2 = c1 - 2.0 * b1 + 3.0 * p_a2
    a1 = min(1.0, d1 * d1 / (8.0 * c1 * (b2 - p_a1)))
    a2 = min(1.0, d2 * d2 / (8.0 * c2 * (b1 - p_a2)))
    m1 = 4.0 * c1 * (b2 - p_a1) / d1
    m2 = 4.0 * c2 * (b1 - p_a2) / d2
    big_p = (c1 + m1, c2 + 0.5 * (2.0 * b2 - c2 - p_a1))
    big_q = (c1 + 0.5 * (2.0 * b1 - c1 - p_a2), c2 + m2)
    p = big_p[0] + big_p[1] - c1 - c2
    return SolveParams(
        p_a1=p_a1, p_a2=p_a2, a1=a1, a2=a2, m1=m1, m2=m2, p=p, P=big_p, Q=big_q
    )


def _solve_ss_kind_a(rect: Rectangle, cc: CriticalConstants) -> Mechanism | None:
    """Two-lottery structure: nested bisection over the edge prices."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    if cc.r1 > cc.p_a1_star or cc.r2 > cc.p_a2_star:
        return None

    lo2 = (2.0 * b1 - c1) / 3.0
    m2_at_cap = 4.0 * c2 * (b1 - cc.p_a2_star) / (c1 - 2.0 * b1 + 3.0 * cc.p_a2_star)

    def feasibility(pa1: float) -> float:
        """Diagonal mismatch at the capped p_a2; >= 0 means solvable."""
        d1 = c2 - 2.0 * b2 + 3.0 * pa1
        m1 = 4.0 * c1 * (b2 - pa1) / d1
        return (
            m1
            + 0.5 * (2.0 * b2 - c2 - pa1)
            - 0.5 * (2.0 * b1 - c1 - cc.p_a2_star)
            - m2_at_cap
        )

    lo = cc.r1
    hi = cc.p_a1_star
    if feasibility(lo) < 0.0:
        return None
    if feasibility(hi) < 0.0:
        hi = _feasible_edge(feasibility, lo, hi)

    def g(pa1: float) -> float:
        return residual_W(rect, pa1, solve_pa2_given_pa1(rect, pa1))

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
    p_a2 = solve_pa2_given_pa1(rect, root)
    params = _kind_a_params(rect, root, p_a2)
    tol = 1e-9 * (rect.b1 + rect.b2)
    if params.P[0] > params.Q[0] + tol or params.Q[1] > params.P[1] + tol:
        return None
    return build_mechanism(StructureKind.A, params, rect)


def _kind_b_cubic(rect: Rectangle) -> tuple[float, float, float, float]:
    """Ascending coefficients of the one-lottery structure's residual cubic
    in p_a1 (the residual equals -1 times the bundle-region measure up to
    a positive scale)."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    e = c2 - 2.0 * b2
    k0 = (
        -8.0 * c1 * b2 * b2
        + (c2 * b1 - b2 * b1 - b2 * c1) * e
        + (0.5 * c2 - b1) * e * e
        - 0.375 * e**3
    )
    k1 = (
        c1 * (4.0 * c2 - 3.0 * b2)
        + 3.0 * b1 * b2
        + 2.0 * (c2 - 2.0 * c1) * e
        - 1.875 * e * e
    )
    k2 = 1.5 * c2 - 2.625 * e
    k3 = -1.125
    return (k0, k1, k2, k3)


def _kind_b_params(rect: Rectangle, p_a1: float) -> SolveParams | None:
    """Parameters of the one-lottery structure; None if geometry is invalid."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    d1 = c2 - 2.0 * b2 + 3.0 * p_a1
    if d1 <= 0.0 or p_a1 >= b2:
        return None
    if c1 > 0.0:
        a1 = min(1.0, d1 * d1 / (8.0 * c1 * (b2 - p_a1)))
        m1 = 4.0 * c1 * (b2 - p_a1) / d1
    else:
        a1, m1 = 0.0, 0.0
    half = 0.5 * (2.0 * b2 - c2 - p_a1)
    p = m1 + half
    big_p = (c1 + m1, c2 + half)
    tol = 1e-9 * (b1 + b2)
    if not (0.0 <= p <= b1 + tol and c2 <= big_p[1] <= rect.z2_max + tol):
        return None
    if big_p[0] > c1 + p + tol:
        return None
    return SolveParams(p_a1=p_a1, a1=a1, m1=m1, p=p, P=big_p, Q=(c1 + p, c2))


def _solve_ss_kind_b(rect: Rectangle, cc: CriticalConstants) -> Mechanism | None:
    if cc.r1 > cc.p_a1_star:
        return None
    roots = real_roots_in_interval(_kind_b_cubic(rect), cc.r1, cc.p_a1_star)
    candidates = []
    for root in roots:
        params = _kind_b_params(rect, root)
        if params is not None:
            candidates.append(build_mechanism(StructureKind.B, params, rect))
    return _best_by_revenue(candidates) if candidates else None


def _solve_ss_general(rect: Rectangle) -> Mechanism:
    """Both corner offsets positive: try the structures in fixed order."""
    cc = critical_constants(rect)
    mech = _solve_ss_kind_a(rect, cc)
    if mech is not None:
        return mech
    mech = _solve_ss_kind_b(rect, cc)
    if mech is not None:
        return mech
    swapped = _solve_ss_kind_b(rect.swapped(), critical_constants(rect.swapped()))
    if swapped is not None:
        return swapped.swapped()
    return solve_bundling(rect)


def _polygon_w_mass(rect: Rectangle, halfplanes: list[HalfPlane]) -> float:
    return MuBar(rect).mass(clip_many(rect_polygon(rect), halfplanes))


def _solve_ss_c1_zero(rect: Rectangle) -> Mechanism:
    """Small/Small with c1 = 0 < c2: the good-1 lottery is pinned flat.

    The flat edge price is (2 b2 - c2)/3 with zero lottery weight, so one
    residual equation remains: sweep p_a2 for the two-lottery structure,
    falling back to a one-dimensional bundle-price bisection, the mirrored
    cubic, and pure bundling, in that order.
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    cc = critical_constants(rect)
    p_a1 = (2.0 * b2 - c2) / 3.0

    def candidate_a(pa2: float) -> SolveParams:
        d2 = c1 - 2.0 * b1 + 3.0 * pa2
        m2 = 4.0 * c2 * (b1 - pa2) / d2
        big_q = (c1 + 0.5 * (2.0 * b1 - c1 - pa2), c2 + m2)
        p = big_q[0] + big_q[1] - c1 - c2
        big_p = (c1 + c2 + p - (c2 + p_a1), c2 + p_a1)
        return SolveParams(
            p_a1=p_a1, p_a2=pa2, a1=0.0,
            a2=min(1.0, d2 * d2 / (8.0 * c2 * (b1 - pa2))),
            m1=0.0, m2=m2, p=p, P=big_p, Q=big_q,
        )

    def g(pa2: float) -> float:
        sp = candidate_a(pa2)
        return _geometric_w_residual(rect, sp.P[0], sp.P[1], sp.Q[0], sp.Q[1])

    tol = 1e-9 * (b1 + b2)
    if cc.r2 <= cc.p_a2_star:
        g_lo, g_hi = g(cc.r2), g(cc.p_a2_star)
        root = None
        if g_lo >= 0.0:
            # the residual is quadratic in the lengths
            if g_lo <= 1e-9 * rect.area:
                root = cc.r2
        elif g_hi >= 0.0:
            root = _bisect(g, cc.r2, cc.p_a2_star, g_lo, g_hi)
        if root is not None:
            params = candidate_a(root)
            # near the bracket start the corner coordinates move at rate
            # ~(3 m2 + 4 c2)/d2 per unit edge price, so the root resolution
            # leaves a band of that width around P1 = c1 inside which the
            # two-lottery candidate cannot be told from the one-lottery
            # fallbacks; route the band to the fallbacks deterministically
            d2 = abs(c1 - 2.0 * b1 + 3.0 * root)
            rate = (3.0 * abs(params.m2) + 4.0 * c2) / d2 if d2 > 0.0 else 0.0
            wide = 8.0 * rate * BISECT_REL_TOL * abs(root) + tol
            if params.P[0] >= c1 + wide and params.P[0] <= params.Q[0] - wide:
                return build_mechanism(StructureKind.A, params, rect)

    # one-lottery structure: the flat price fixes the vertical boundary at
    # z1 = c1 + p - p_a1; bisect the bundle offset for zero bundle measure
    def w_mass(p: float) -> float:
        return _polygon_w_mass(
            rect,
            [
                HalfPlane(-1.0, 0.0, -(c1 + p - p_a1)),
                HalfPlane(-1.0, -1.0, -(c1 + c2 + p)),
            ],
        )

    lo, hi = p_a1, b1
    if p_a1 < b1:
        try:
            p = _bisect(w_mass, lo, hi)
            params = SolveParams(
                p_a1=p_a1, a1=0.0, m1=0.0, p=p,
                P=(c1 + p - p_a1, c2 + p_a1), Q=(c1 + p, c2),
            )
            if params.P[0] <= rect.z1_max + tol:
                return build_mechanism(StructureKind.B, params, rect)
        except NoRoot:
            pass

    swapped_rect = rect.swapped()
    mech = _solve_ss_kind_b(swapped_rect, critical_constants(swapped_rect))
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
    lo = max(2.0 * b2 - c2, 0.0)
    roots = real_roots_in_interval((k0, k1, k2, k3), lo, b2)
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
    if candidates:
        return _best_by_revenue(candidates)
    return solve_bundling(rect)


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
