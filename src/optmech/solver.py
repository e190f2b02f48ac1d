"""Decision procedure for the revenue-optimal selling structure.

Given a value rectangle, the solver classifies it into a phase region,
then pins down the structure parameters.  Each structure's defining
residual, written out in closed form, is a transformed measure of one of
its regions that vanishes at the optimum: the bundle region's mass for
the lottery structures, the lottery region's first moment for the ramp.
Partial lotteries also need their edge shuffle to vanish, which the
closed-form slopes and spans encode exactly.  The SmallSmall structures
are written in the lottery kinks m_i, where each lottery ends on its top
edge, with the edge offsets D_i and weights a_i derived from them; every
quantity then has a finite limit as a corner offset tends to 0, so zero
offsets take the same path as positive ones.  The one-lottery and ramp
residuals are cubics, split at their critical and inflection points into
monotone pieces of one convexity, each holding at most one root, which
Newton's method finds from the end that Fourier's condition picks.  Each
search covers only the roots its structure can admit: the ramp's ends at
pure bundling's offset, above which its weight exceeds 1, and the
one-lottery's starts at its floor.  Each cubic's first admissible root is
its only one, and is the structure; in SmallSmall the first structure
that exists is the optimum, so the solver compares none and prices only
the one it returns.  The two-lottery
structure has one residual root in the good-1 kink, with the matching
good-2 kink and the bracket's feasibility edge each the positive root of
a quadratic.  That root, and any Newton search that leaves its piece,
come from one Brent-Dekker search (``_root_in_bracket``) resolved to the
rounding floor.  Each region's solver returns the structure it finds and
makes no record: ``solve`` makes the one record, and ``phase_kinds``,
which takes a phase map's kinds from the regions where the region fixes
the kind and solves a structure only where a root decides it, none.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import partial

from .mechanism import build_mechanism
from .types import Mechanism, Rectangle, Structure, StructureKind, unit_scale

#: Relative bracket width at which the root finder stops.  Resolving roots
#: to the rounding floor keeps the derived parameters accurate even where
#: the parametrization amplifies root error by the reciprocal corner offset,
#: because the residual slope at the root carries the same amplification.
ROOT_REL_TOL = 4e-16
ROOT_MAX_ITER = 200
#: A root this close outside a bracket end, relative to the interval
#: magnitude, lies on the end: where a structure puts its root exactly on
#: the end, rounding moves it to either side.
ROOT_END_REL_TOL = 1e-10
#: A critical point is a double root where the polynomial there is within
#: this many rounding units of sum |a_i| |x|^i.
ROOT_DOUBLE_ULPS = 16.0
#: The ramp search ends at pure bundling's offset p* times ``RAMP_CAP``,
#: or at b2 where that end lies above b2 times ``RAMP_DOUBLE_EDGE``, within
#: the width of the rounding twins of the ramp cubic's double root at b2
#: (``solve_small_large``).
RAMP_CAP = 1.0 + 8.0 * sys.float_info.epsilon
RAMP_DOUBLE_EDGE = 1.0 - 2.0 * math.sqrt(ROOT_DOUBLE_ULPS * sys.float_info.epsilon)


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

    # identity hash, as for ``StructureKind``
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _sweep_kinks(c1: float, c2: float, b1: float, b2: float) -> tuple[float, float]:
    """Kinks m1 where the lottery weight a1 reaches 1 and where the two
    corner points coincide, the ends of the good-1 sweep; those of good 2
    are the mirror's."""
    full = _positive_root(4.0 * c1 / 3.0, 2.0 * c1 * (b2 + c2) / 3.0)
    coincident = 2.0 * (2.0 * b1 + 3.0 * c1) * (b2 + c2) / (3.0 * (2.0 * b2 + 3.0 * c2)) - 4.0 * c1 / 3.0
    return full, coincident


def classify(rect: Rectangle) -> PhaseRegion:
    """Phase region of the corner offsets relative to the side lengths.

    Regions are checked in a fixed order; boundaries belong to the region
    listed first, except that the band of intermediate c2 values is
    half-open at its upper threshold (the deterministic single-good
    structure takes over exactly at the threshold).
    """
    return _region(rect.c1, rect.c2, rect.b1, rect.b2)


def _region(c1: float, c2: float, b1: float, b2: float) -> PhaseRegion:
    """``classify`` on the support's coordinates."""
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


def _root_in_bracket(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Root of f, valued flo and fhi at the bracket ends, by Brent-Dekker.

    Each step takes the secant or inverse quadratic estimate through the
    last iterates when it falls well inside the bracket, and halves the
    bracket otherwise.  The search stops once the bracket holding the sign
    change is no wider than ``ROOT_REL_TOL`` times the larger end magnitude,
    or no float lies strictly inside it, and returns the bracket end of
    smaller |f|.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoRoot(f"no sign change on [{lo!r}, {hi!r}]: f = {flo!r}, {fhi!r}")
    half_tol = 0.5 * ROOT_REL_TOL * max(abs(lo), abs(hi))
    # b is the best estimate, c the bracket's other end, a the last b
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    step = last = b - a
    for _ in range(ROOT_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = last = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        half = 0.5 * (c - b)
        if abs(half) <= half_tol or math.nextafter(b, c) == c:
            return b
        if abs(last) >= half_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(half_tol * q), abs(last * q)):
                last, step = step, p / q
            else:
                step = last = half
        else:
            step = last = half
        a, fa = b, fb
        b += step if abs(step) > half_tol else math.copysign(half_tol, half)
        fb = f(b)
        if fb == 0.0:
            return b
    return b


def _positive_root(b: float, c: float) -> float:
    """Positive root of x^2 + b x - c for c > 0, free of cancellation and,
    where b^2 overflows, of the overflow."""
    bb = b * b
    disc = math.sqrt(bb + 4.0 * c) if bb < math.inf else abs(b) * math.sqrt(1.0 + 4.0 * c / b / b)
    return 2.0 * c / (b + disc) if b > 0.0 else 0.5 * (disc - b)


def _monotone_root(
    a0: float, a1: float, a2: float, a3: float, lo: float, hi: float, flo: float, fhi: float
) -> float:
    """Root of a3 x^3 + a2 x^2 + a1 x + a0 on [lo, hi], where the cubic is
    monotone and of one convexity, valued flo and fhi of opposite signs at
    the ends.

    Newton's method starts from the end where f has the sign of f''
    (Fourier's condition), so each step lands between the last iterate and
    the root.  It stops once a step no longer lowers |f|, so a root far
    smaller than the bracket keeps its own relative accuracy.  A step that
    leaves the bracket or meets f' = 0 hands the bracket to
    ``_root_in_bracket``.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    convex = 3.0 * a3 * (lo + hi) + 2.0 * a2 > 0.0
    x, fx = (lo, flo) if (flo > 0.0) == convex else (hi, fhi)
    for _ in range(ROOT_MAX_ITER):
        slope = (3.0 * a3 * x + 2.0 * a2) * x + a1
        if slope == 0.0:
            break
        y = x - fx / slope
        if not lo <= y <= hi:
            break
        fy = ((a3 * y + a2) * y + a1) * y + a0
        if abs(fy) >= abs(fx):
            return x
        x, fx = y, fy
    # default arguments bind the coefficients: a closure would make them
    # cell variables here, and slow the Newton loop above
    return _root_in_bracket(
        lambda y, a0=a0, a1=a1, a2=a2, a3=a3: ((a3 * y + a2) * y + a1) * y + a0, lo, hi, flo, fhi
    )


def real_roots_in_interval(coeffs: tuple[float, ...] | list[float], lo: float, hi: float) -> list[float]:
    """Real roots in [lo, hi] of a polynomial (ascending coefficients, degree <= 3).

    Trailing zero coefficients are dropped, and leading ones are factored
    out as a root at 0, reported once.  The rest is split at its critical
    points and its inflection point into pieces where it is monotone and of
    one convexity, so each piece holds at most one root: one where its end
    values differ in sign, found by ``_monotone_root``.  A critical point
    where the polynomial is zero to rounding, within ``ROOT_DOUBLE_ULPS``
    rounding units of sum |a_i| |x|^i, is a double root, and stands for the
    rounding twins on its two neighbouring pieces; two such points are one
    triple root.  The search runs on [lo, hi] widened by
    ``ROOT_END_REL_TOL`` of the interval magnitude, and roots outside
    [lo, hi] are clamped onto it.
    """
    if len(coeffs) > 4:
        raise ValueError(f"degree at most 3 supported, got {len(coeffs) - 1}")
    a0, a1, a2, a3 = (*coeffs, 0.0, 0.0, 0.0, 0.0)[:4]
    if hi < lo or a1 == a2 == a3 == 0.0:
        return []
    end = ROOT_END_REL_TOL * max(abs(lo), abs(hi))
    a, b = lo - end, hi + end
    roots = []
    if a0 == 0.0:
        if a <= 0.0 <= b:
            roots.append(0.0)
        if a1 != 0.0:
            a0, a1, a2, a3 = a1, a2, a3, 0.0
        elif a2 != 0.0:
            a0, a1, a2, a3 = a2, a3, 0.0, 0.0
        else:
            a0, a1, a2, a3 = a3, 0.0, 0.0, 0.0
    if a3 != 0.0:
        # the derivative's roots, free of cancellation: the one of larger
        # magnitude first, the other from their product; a complex pair
        # counts where its imaginary part underflows to 0
        k = 3.0 * a3
        h = -0.5 * (2.0 * a2)
        disc = h * h - k * a1
        if disc < 0.0:
            critical = (h / k,) * 2 if math.sqrt(-disc) / abs(k) == 0.0 else ()
        else:
            q = h + math.copysign(math.sqrt(disc), h)
            critical = (q / k, a1 / q) if q != 0.0 else (0.0, 0.0)
        bends = (*critical, -a2 / k)
    else:
        critical = bends = (-0.5 * a1 / a2,) if a2 != 0.0 else ()
    xs = [a]
    for x in sorted([x for x in bends if a < x < b]):
        if x != xs[-1]:
            xs.append(x)
    xs.append(b)
    # one pass over the piece ends
    found = False
    x0 = f0 = None
    double0 = False
    for x1 in xs:
        f1 = ((a3 * x1 + a2) * x1 + a1) * x1 + a0
        double1 = False
        if x1 in critical:
            ax = abs(x1)
            scale = ((abs(a3) * ax + abs(a2)) * ax + abs(a1)) * ax + abs(a0)
            double1 = abs(f1) <= ROOT_DOUBLE_ULPS * sys.float_info.epsilon * scale
            if double1 and not found:
                roots.append(x1)
                found = True
        if x0 is not None and (f0 > 0.0) != (f1 > 0.0) and not (double0 or double1):
            roots.append(_monotone_root(a0, a1, a2, a3, x0, x1, f0, f1))
        x0, f0, double0 = x1, f1, double1
    roots = [min(max(x, lo), hi) for x in roots]
    roots.sort()
    return roots


# ---------------------------------------------------------------------------
# Small/Small region
# ---------------------------------------------------------------------------
#
# A lottery (a_i, 1) ends on its top edge at the kink z_i = c_i + m_i, and
# its edge offset D_i = c_{-i} - 2 b_{-i} + 3 p_a_i and weight a_i follow
# from the kink: D_i = 4 c_i s_i / (3 m_i + 4 c_i) with s_i = b_{-i} + c_{-i}
# the far edge, and a_i = D_i / (2 m_i), capped at 1.  As c_i -> 0, D_i
# and a_i tend to 0 at every kink m_i > 0, so a zero corner offset is an
# ordinary point of the structures written in the kinks.


def _lottery(c: float, s: float, m: float) -> tuple[float, float]:
    """Edge offset D and weight a of the lottery with kink m; at and below
    the kink where a reaches 1 (6 m^2 + 8 c m = 4 c s), D = 2 m and a = 1."""
    if m * (3.0 * m + 4.0 * c) <= 2.0 * c * s:
        return 2.0 * m, 1.0
    d = 4.0 * c * s / (3.0 * m + 4.0 * c)
    return d, 0.5 * d / m


def _kink(c: float, s: float, r: float) -> float:
    """Kink m >= 0 of the lottery with m - D(m)/6 = r, which is increasing
    in m: 3 m + 4 c times it is 3 (m^2 + (4 c/3 - r) m - 4 c (r + s/6)/3)."""
    q = 4.0 * c / 3.0
    return _positive_root(q - r, max(0.0, q * (r + s / 6.0)))


def _match_kink(rect: Rectangle, m1: float, d1: float) -> float:
    """Good-2 kink putting both corner points on one diagonal, given the
    good-1 kink and edge offset: P1 + P2 = Q1 + Q2 reads
    m2 - D2/6 = m1 + (4 (b2 - b1) - 2 (c2 - c1) - D1)/6."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return _kink(c2, b1 + c1, m1 + (4.0 * (b2 - b1) - 2.0 * (c2 - c1) - d1) / 6.0)


def _kind_a_residual(rect: Rectangle, m1: float, d1: float, m2: float, d2: float) -> float:
    """-b1 b2 times the transformed measure of the region northeast of the
    two corner points and the price diagonal; the optimum is its zero."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return (
        3.0 * (b1 - m1) * (b2 - m2)
        - (c2 + b2) * (b1 - m1)
        - (c1 + b1) * (b2 - m2)
        - (4.0 * b2 - 2.0 * c2 - d1 - 6.0 * m2) * (4.0 * b1 - 2.0 * c1 - d2 - 6.0 * m1) / 24.0
    )


def _kind_a_point(rect: Rectangle, m1: float) -> tuple[float, float, float, float, float]:
    """(D1, a1, m2, D2, a2) of the two-lottery structure with kink m1."""
    d1, a1 = _lottery(rect.c1, rect.b2 + rect.c2, m1)
    m2 = _match_kink(rect, m1, d1)
    return (d1, a1, m2) + _lottery(rect.c2, rect.b1 + rect.c1, m2)


def residual_W(rect: Rectangle, p_a1: float, p_a2: float) -> float:
    """Two-lottery residual in the edge prices: -b1 b2 D1 D2 times the
    transformed measure of the bundle region, for D_i > 0."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    d1, d2 = c2 - 2.0 * b2 + 3.0 * p_a1, c1 - 2.0 * b1 + 3.0 * p_a2
    m1, m2 = 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1), 4.0 * c2 * (b1 + c1 - d2) / (3.0 * d2)
    return d1 * d2 * _kind_a_residual(rect, m1, d1, m2, d2)


def solve_pa2_given_pa1(rect: Rectangle, p_a1: float) -> float:
    """Edge price of good 2 putting both corner points on one diagonal,
    with the good-2 weight not capped at 1."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    if c2 <= 0.0:
        raise ValueError("solve_pa2_given_pa1 requires c2 > 0")
    d1 = c2 - 2.0 * b2 + 3.0 * p_a1
    if d1 <= 0.0:
        raise ValueError(f"p_a1 below the admissible range: {p_a1!r}")
    m2 = _match_kink(rect, 4.0 * c1 * (b2 + c2 - d1) / (3.0 * d1), d1)
    return (2.0 * b1 - c1 + 4.0 * c2 * (b1 + c1) / (3.0 * m2 + 4.0 * c2)) / 3.0


def _solve_ss_kind_a(rect: Rectangle) -> Structure | None:
    """Two-lottery structure: one bracketed root in the good-1 kink."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    lo, hi = _sweep_kinks(c1, c2, b1, b2)
    lo2, hi2 = _sweep_kinks(c2, c1, b2, b1)
    if lo > hi or lo2 > hi2:
        return None
    # a2 <= 1 holds where the matched m2 is at least lo2, where
    # m2 - D2/6 = 2 lo2/3: m1 - D1/6 >= 2 lo2/3 - K
    edge = _kink(c1, b2 + c2, 2.0 * lo2 / 3.0 - (4.0 * (b2 - b1) - 2.0 * (c2 - c1)) / 6.0)
    if edge > hi:
        return None
    lo = max(lo, edge)

    def g(m1: float) -> float:
        d1, _, m2, d2, _ = _kind_a_point(rect, m1)
        return _kind_a_residual(rect, m1, d1, m2, d2)

    g_lo = g(lo)
    if g_lo < 0.0:
        return None
    g_hi = g(hi)
    if g_hi >= 0.0:
        # the residual ends nonnegative only when the root sits at the
        # bracket end itself (coincident corner points)
        if g_hi > 1e-9 * rect.area:
            return None
        m1 = hi
    else:
        m1 = _root_in_bracket(g, lo, hi, g_lo, g_hi)
    d1, a1, m2, d2, a2 = _kind_a_point(rect, m1)
    big_p = (c1 + m1, c2 + (4.0 * b2 - 2.0 * c2 - d1) / 6.0)
    big_q = (c1 + (4.0 * b1 - 2.0 * c1 - d2) / 6.0, c2 + m2)
    tol = 1e-9 * (b1 + b2)
    # a kink within rounding of 0 is the one-lottery structure's: at zero
    # offsets and b2 = 2 b1 the kink is 0, and rounding put it anywhere in
    # [0, 3e-16 b2] depending on the scale of the support
    if (
        min(m1, m2) <= 4.0 * ROOT_REL_TOL * (b1 + b2)
        or big_p[0] > big_q[0] + tol
        or big_q[1] > big_p[1] + tol
    ):
        return None
    fields = dict(
        p_a1=(2.0 * b2 - c2 + d1) / 3.0, p_a2=(2.0 * b1 - c1 + d2) / 3.0,
        a1=a1, a2=a2, m1=m1, m2=m2, p=big_p[0] + big_p[1] - c1 - c2, P=big_p, Q=big_q,
    )
    return StructureKind.A, fields, False


def _kind_b_cubic(rect: Rectangle) -> tuple[float, float, float, float]:
    """Ascending coefficients of the one-lottery structure's residual cubic
    in m1: -b1 b2 times the bundle-region measure, times a positive factor.

    The leading coefficient is -36 b2, and at c1 = 0 the two low ones
    vanish, leaving the root m1 = b1/2 - b2/3 + c2^2/(12 b2).
    """
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return (
        4.0 * c1 * c1 * (8.0 * b1 * b2 - 3.0 * b2 * b2 - 8.0 * b2 * c1 + 2.0 * b2 * c2 + c2 * c2),
        8.0 * c1 * (6.0 * b1 * b2 - 3.0 * b2 * b2 - 14.0 * b2 * c1 + b2 * c2 + c2 * c2),
        3.0 * (6.0 * b1 * b2 - 4.0 * b2 * b2 - 38.0 * b2 * c1 + c2 * c2),
        -36.0 * b2,
    )


def _kind_b_params(rect: Rectangle, m1: float) -> dict | None:
    """``SolveParams`` fields of the one-lottery structure with kink m1 > 0;
    None if its geometry is invalid."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    d1, a1 = _lottery(c1, b2 + c2, m1)
    if d1 >= b2 + c2:  # the edge price reaches b2
        return None
    half = (4.0 * b2 - 2.0 * c2 - d1) / 6.0
    p = m1 + half
    big_p = (c1 + m1, c2 + half)
    tol = 1e-9 * (b1 + b2)
    # on the SmallSmall curve P[1] = c2, which rounding misses by an ulp
    floor = c2 - 4.0 * sys.float_info.epsilon * max(c2, b2)
    if not (0.0 <= p <= b1 + tol and floor <= big_p[1] <= rect.z2_max + tol):
        return None
    p_a1 = (2.0 * b2 - c2 + d1) / 3.0
    return {"p_a1": p_a1, "a1": a1, "m1": m1, "p": p, "P": big_p, "Q": (c1 + p, c2)}


def _solve_ss_kind_b(rect: Rectangle, swap: bool = False) -> Structure | None:
    """The one-lottery structure, or with ``swap`` its mirror: the same
    structure solved with the goods exchanged."""
    frame = rect.swapped() if swap else rect
    lo, hi = _sweep_kinks(frame.c1, frame.c2, frame.b1, frame.b2)
    if lo > hi:
        return None
    # roots below lo have a1 > 1, and those within the search's resolution
    # ROOT_REL_TOL * hi of 0 are the root at 0; the search starts at this
    # floor, and the end rule, relative to hi, clamps onto it the roots
    # just below it, which the loop rejects with the rest at the floor
    floor = max(lo * (1.0 - ROOT_END_REL_TOL), ROOT_REL_TOL * hi)
    for m1 in real_roots_in_interval(_kind_b_cubic(frame), floor, hi):
        fields = _kind_b_params(frame, max(m1, lo)) if m1 > floor else None
        if fields is not None:
            return StructureKind.B, fields, swap
    return None


def solve_small_small(rect: Rectangle) -> Structure:
    """Both offset-to-side ratios small: the two-lottery structure, the
    one-lottery structure, its mirror and pure bundling, in that order."""
    return (
        _solve_ss_kind_a(rect)
        or _solve_ss_kind_b(rect)
        or _solve_ss_kind_b(rect, swap=True)
        or solve_bundling(rect)
    )


# ---------------------------------------------------------------------------
# Small/Large and Small/VeryLarge regions (and mirrors)
# ---------------------------------------------------------------------------

def _kind_d_cubic(rect: Rectangle) -> tuple[float, float, float, float]:
    """Ascending coefficients of the ramp structure's residual cubic in the
    edge price p_a1: b1 b2 (3 p_a1 + 2 c2)^2 times the first u1-moment of
    the transformed measure over the lottery region, at the weight a1 that
    leaves the null region a zero measure."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    return (
        2.0 * b1 * b1 * b2 * b2 * c2 - c2 * c2 * b2 * (b1 - c1) ** 2,
        2.0 * b1 * b1 * b2 * b2 - 4.0 * b1 * b2 * c1 * c2 - 3.0 * c2 * b2 * (b1 - c1) ** 2,
        2.0 * c1 * c1 * c2 - 4.0 * b1 * b2 * c1 - 2.25 * b2 * (b1 - c1) ** 2,
        2.0 * c1 * c1,
    )


def _kind_d_params(rect: Rectangle, p_a1: float) -> dict | None:
    """``SolveParams`` fields of the ramp structure with edge price p_a1;
    None if its geometry is invalid."""
    c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
    denom = b1 * b2 - c1 * p_a1
    if denom <= 0.0:
        return None
    a1 = p_a1 * (1.5 * p_a1 + c2) / denom
    if a1 > 1.0:
        return None
    p = 0.5 * (b1 - c1)
    if a1 > 0.0:
        m1 = p_a1 / a1
        if m1 > p + 1e-9 * (b1 + b2):
            return None
    else:
        # a root exists only where c2 >= b2 > 0
        m1 = b1 * b2 / c2
    return {"p_a1": p_a1, "a1": a1, "m1": m1, "p": p}


def solve_small_large(rect: Rectangle, swap: bool = False) -> Structure:
    """Intermediate c2 band: ramp-lottery structure or pure bundling.

    The edge price is the first root of ``_kind_d_cubic`` on
    [(2 b2 - c2)+, min(b2, p*)] that ``_kind_d_params`` admits, with p*
    pure bundling's offset, the fallback, which the solve takes first.
    Where it admits none (b1 b2 <= c1 p_a1, a1 > 1, or the lottery line
    meets z2 = c2 past the bundle boundary z1 = c1 + (b1 - c1)/2), the
    ramp structure does not exist, leaving pure bundling.  With ``swap``,
    the LargeSmall mirror: the same, solved with the goods exchanged.

    The weight a1 = p_a1 (1.5 p_a1 + c2)/(b1 b2 - c1 p_a1) exceeds 1
    exactly above p*: a1 - 1 is 3/2 of p*'s quadratic over the positive
    denominator.  So every root above p* is rejected, and the search does
    not polish them.  In floats, with u = eps/2: the computed a1 moves
    the edge a1 = 1 by at most 7 u of p_a1 (a1's relative slope in p_a1,
    at least b1 b2/(b1 b2 - c1 p_a1), offsets the denominator's
    cancellation), and the computed p* is within 8 u of p*, so a root up
    to 15 u above p* may read a1 <= 1.  The search ends at p* (1 + 8 eps):
    it keeps those roots, and a root the end rule clamps onto that end
    reads a1 > 1 there, as it does at its own value.  As c1 tends to b1
    the cubic tends to 2 b1^2 (p_a1 - b2)^2 (p_a1 + c2), and rounding
    splits its double root b2 into twins up to 8 sqrt(eps) b2 either side
    of it, which ``real_roots_in_interval`` reads as one double root.
    Where p* lies within that width below b2 the search runs to b2, so its
    end does not cut the twins apart and admit the lower one.
    """
    frame = rect.swapped() if swap else rect
    # pure bundling is its own mirror: p* is the same in either frame
    bundling = solve_bundling(frame)
    lo = max(2.0 * frame.b2 - frame.c2, 0.0)
    hi = bundling[1]["p"] * RAMP_CAP
    if hi > RAMP_DOUBLE_EDGE * frame.b2:
        hi = frame.b2
    for p_a1 in real_roots_in_interval(_kind_d_cubic(frame), lo, hi):
        fields = _kind_d_params(frame, p_a1)
        if fields is not None:
            return StructureKind.D, fields, swap
    return bundling


def solve_small_verylarge(rect: Rectangle, swap: bool = False) -> Structure:
    """Very large c2: good 2 sold deterministically, good 1 only in the
    bundle; with ``swap``, the VeryLargeSmall mirror.  The kind is E (its
    mirror with ``swap``) on every support: ``phase_kinds`` takes it from
    the region and runs no solve."""
    b1, c1 = (rect.b2, rect.c2) if swap else (rect.b1, rect.c1)
    return StructureKind.E, {"p": 0.5 * (b1 - c1)}, swap


def solve_bundling(rect: Rectangle) -> Structure:
    """Pure bundling at the critical diagonal offset
    p* = (sqrt(s^2 + 6 b1 b2) - s)/3, with s = c1 + c2: the positive root of
    p^2 + (2 s/3) p - 2 b1 b2/3, taken free of cancellation when s >> b.
    The kind is C on every support: ``phase_kinds`` takes it from the
    region and runs no solve."""
    s = rect.c1 + rect.c2
    p_star = _positive_root(2.0 * s / 3.0, 2.0 * rect.b1 * rect.b2 / 3.0)
    return StructureKind.C, {"p": p_star}, False


_DISPATCH = {
    PhaseRegion.SMALL_SMALL: solve_small_small,
    PhaseRegion.SMALL_LARGE: solve_small_large,
    PhaseRegion.SMALL_VERY_LARGE: solve_small_verylarge,
    PhaseRegion.LARGE_SMALL: partial(solve_small_large, swap=True),
    PhaseRegion.VERY_LARGE_SMALL: partial(solve_small_verylarge, swap=True),
    PhaseRegion.BOTH_LARGE: solve_bundling,
}


def _structure(rect: Rectangle) -> tuple[Structure, Rectangle, float]:
    """The structure ``solve`` finds, the support it solves, and the scale
    that takes that support back to ``rect``."""
    lam = unit_scale(rect)
    unit = rect if lam == 1.0 else rect.scaled(1.0 / lam)
    return _DISPATCH[classify(unit)](unit), unit, lam


def phase_kinds(b1: float, b2: float, ratios: list[float]) -> list[list[StructureKind]]:
    """``solve``'s kind on the support (r1 b1, r2 b2, b1, b2) for each r1
    and r2 in ``ratios``, row-major in r1, found with no record.

    Every cell has the sides b1 and b2, and none has larger offsets than
    the far corner, at the largest ratio, so the scale ``unit_scale``
    gives the far corner is every cell's, and it refuses there if it
    would at any cell.  Each cell is classified at that size, on the
    coordinates ``Rectangle.scaled`` gives it.  Where the region alone
    fixes the kind, the cell takes it: pure bundling (C) in BothLarge,
    and the good with the very large offset sold alone (E, or its mirror
    in VeryLargeSmall), the kinds ``solve_bundling`` and
    ``solve_small_verylarge`` give on every support.  Only the cells of the other three regions, whose
    kind a root decides, solve the region's structure.
    """
    top = max(ratios)
    inv = 1.0 / unit_scale(Rectangle(top * b1, top * b2, b1, b2))
    u1, u2 = inv * b1, inv * b2
    # read once: each read of an enum member goes through the enum's class
    both_large, small_very_large, very_large_small = (
        PhaseRegion.BOTH_LARGE, PhaseRegion.SMALL_VERY_LARGE, PhaseRegion.VERY_LARGE_SMALL,
    )
    bundling, single = StructureKind.C, StructureKind.E
    single_mirror = single.swapped()
    c2s = [inv * (r2 * b2) for r2 in ratios]
    rows = []
    for r1 in ratios:
        c1 = inv * (r1 * b1)
        row = []
        for c2 in c2s:
            region = _region(c1, c2, u1, u2)
            if region is both_large:
                row.append(bundling)
            elif region is small_very_large:
                row.append(single)
            elif region is very_large_small:
                row.append(single_mirror)
            else:
                kind, _, swap = _DISPATCH[region](Rectangle(c1, c2, u1, u2))
                row.append(kind.swapped() if swap else kind)
        rows.append(row)
    return rows


def solve(rect: Rectangle) -> Mechanism:
    """Optimal mechanism for a uniform density on the given rectangle.

    A support with b1 + b2 outside [4^-20, 4^20] is solved at unit size,
    and its record is made there and scaled back exactly (``unit_scale``).
    Raises ``UnitSizeOverflow`` where ``unit_scale`` refuses the support.
    """
    structure, unit, lam = _structure(rect)
    return build_mechanism(structure, unit, lam)
