"""Decision procedure: classification, brackets, residuals, solved structures."""

import ast
import math
import pathlib
import random
import re
import sys

import mpmath
import pytest

import optmech.linear
import optmech.mechanism
import optmech.oracle
import optmech.solver
from helpers import VERIFY_CENTRES, alpha_params, beta_p_of, bundle_item, rival_revenue
from optmech.geometry import best_response_regions
from optmech.measures import MuBar
from optmech.solver import (
    ROOT_MAX_ITER,
    ROOT_REL_TOL,
    NoRoot,
    _kind_b_params,
    _lottery,
    _root_in_bracket,
    _sweep_kinks,
    PhaseRegion,
    classify,
    real_roots_in_interval,
    residual_W,
    solve,
    solve_bundling,
    solve_kind,
    solve_pa2_given_pa1,
)
from optmech.types import NULL_ITEM, Mechanism, MenuItem, Rectangle, SolveParams, StructureKind

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize(
    "rect,region",
    [
        (UNIT, PhaseRegion.SMALL_SMALL),
        (Rectangle(0.1, 0.1, 1.0, 1.0), PhaseRegion.SMALL_SMALL),
        (Rectangle(1.0, 1.0, 1.0, 1.0), PhaseRegion.SMALL_SMALL),
        (Rectangle(0.2, 2.8, 1.0, 1.0), PhaseRegion.SMALL_LARGE),
        (Rectangle(0.5, 8.0, 1.0, 1.0), PhaseRegion.SMALL_VERY_LARGE),
        (Rectangle(2.8, 0.2, 1.0, 1.0), PhaseRegion.LARGE_SMALL),
        (Rectangle(8.0, 0.5, 1.0, 1.0), PhaseRegion.VERY_LARGE_SMALL),
        (Rectangle(2.0, 2.0, 1.0, 1.0), PhaseRegion.BOTH_LARGE),
        (Rectangle(4.0, 4.0, 12.0, 3.0), PhaseRegion.SMALL_SMALL),
    ],
)
def test_classify_known_points(rect, region):
    got = classify(rect)
    assert got is region, f"classify({rect}) = {got.value}, expected {region.value}"


def test_classify_boundary_membership():
    # the SmallSmall curve itself belongs to SmallSmall
    c1 = 0.5
    c2 = 2.0 * (1.0 + c1) / (1.0 + 3.0 * c1)
    assert classify(Rectangle(c1, c2, 1.0, 1.0)) is PhaseRegion.SMALL_SMALL
    assert classify(Rectangle(c1, c2 + 1e-9, 1.0, 1.0)) is PhaseRegion.SMALL_LARGE
    # the very-large threshold itself belongs to SmallVeryLarge
    hi = 2.0 * (1.0 / (1.0 - c1)) ** 2
    assert classify(Rectangle(c1, hi, 1.0, 1.0)) is PhaseRegion.SMALL_VERY_LARGE
    assert classify(Rectangle(c1, hi - 1e-9, 1.0, 1.0)) is PhaseRegion.SMALL_LARGE
    # at c1 = b1 the band extends to every finite c2
    assert classify(Rectangle(1.0, 1e9, 1.0, 1.0)) is PhaseRegion.SMALL_LARGE


def test_classify_is_swap_covariant():
    pairs = [
        (PhaseRegion.SMALL_LARGE, PhaseRegion.LARGE_SMALL),
        (PhaseRegion.SMALL_VERY_LARGE, PhaseRegion.VERY_LARGE_SMALL),
    ]
    mirror = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    for rect in (Rectangle(0.2, 2.8, 1.0, 1.0), Rectangle(0.5, 8.0, 1.0, 1.0), Rectangle(0.3, 3.0, 0.7, 1.3)):
        got = classify(rect)
        swapped = classify(rect.swapped())
        assert swapped is mirror.get(got, got)


# ---------------------------------------------------------------------------
# sweep ends and root isolation


def test_sweep_kinks_frozen_point():
    # the corner points coincide at the kink 0.6, where the edge offset is
    # D1 = 0.44/2.2 and the edge price (2 b2 - c2 + D1)/3 is 0.7; the weight
    # a1 reaches 1 at a smaller kink, whose edge price is below 1
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    full, coincident = _sweep_kinks(rect.c1, rect.c2, rect.b1, rect.b2)
    assert coincident == pytest.approx(0.6, abs=1e-15)
    assert _sweep_kinks(rect.c2, rect.c1, rect.b2, rect.b1) == (full, coincident)
    d1, a1 = _lottery(rect.c1, rect.b2 + rect.c2, coincident)
    assert d1 == pytest.approx(0.2, abs=1e-15) and a1 < 1.0
    d1, a1 = _lottery(rect.c1, rect.b2 + rect.c2, full)
    assert 0.0 < full < coincident and a1 == pytest.approx(1.0, abs=1e-15)
    assert (2.0 * rect.b2 - rect.c2 + d1) / 3.0 < 1.0


def _bundle_offset(rect):
    return solve_bundling(rect)[1]["p"]


def test_bundle_critical_price_closed_form():
    p_star = _bundle_offset(Rectangle(2.0, 2.0, 1.0, 1.0))
    assert p_star == pytest.approx((math.sqrt(22.0) - 4.0) / 3.0, abs=1e-14)
    assert _bundle_offset(UNIT) == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-14)


def test_bundle_critical_price_matches_mpmath_at_large_offsets():
    # p* at 50 digits on sides in [0.3, 3] and offsets up to 5, 100 and 1e4
    # sides; the difference form (sqrt(s^2 + 6 b1 b2) - s)/3 cancels as s
    # grows and read 2e-8 relative at 1e4 sides
    rng = random.Random(2121)
    for band in (5.0, 100.0, 1e4):
        for _ in range(1000):
            b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            rect = Rectangle(rng.uniform(0.0, band) * b1, rng.uniform(0.0, band) * b2, b1, b2)
            with mpmath.workdps(50):
                s = mpmath.mpf(rect.c1) + mpmath.mpf(rect.c2)
                exact = (mpmath.sqrt(s * s + 6 * mpmath.mpf(b1) * mpmath.mpf(b2)) - s) / 3
            p_star = _bundle_offset(rect)
            assert abs(p_star - exact) <= 5e-16 * exact, (rect, p_star, exact)


# ---------------------------------------------------------------------------
# bracketed root finder


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def test_root_in_bracket_returns_an_end_where_f_vanishes():
    f, calls = _counted(lambda x: x - 0.25)
    assert _root_in_bracket(f, 0.25, 1.0, 0.0, 0.75) == 0.25
    assert _root_in_bracket(f, -1.0, 0.25, -1.25, 0.0) == 0.25
    assert calls == []


def test_root_in_bracket_without_a_sign_change_names_the_bracket():
    with pytest.raises(NoRoot, match=r"no sign change on \[0\.5, 2\.0\]: f = 1\.5, 0\.25"):
        _root_in_bracket(lambda x: 1.0, 0.5, 2.0, 1.5, 0.25)
    with pytest.raises(NoRoot, match=r"f = -1\.5, -0\.25"):
        _root_in_bracket(lambda x: 1.0, 0.5, 2.0, -1.5, -0.25)


def _sign_change_near(f, x: float, tol: float) -> bool:
    """Whether f vanishes or changes sign on the floats of [x - tol, x + tol]."""
    y, signs = x - tol, set()
    while y <= x + tol:
        v = f(y)
        if v == 0.0:
            return True
        signs.add(v > 0.0)
        y = math.nextafter(y, math.inf)
    return len(signs) == 2


@pytest.mark.parametrize("seed", range(12))
def test_root_in_bracket_resolves_a_simple_cubic_root(seed):
    # (x - r)(x^2 + u x + v) with v > u^2/4 has the one real root r
    rng = random.Random(seed)
    r, u = rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0)
    v = 0.25 * u * u + rng.uniform(0.05, 2.0)
    lo, hi = r - rng.uniform(0.01, 2.0), r + rng.uniform(0.01, 2.0)
    f, calls = _counted(lambda x: (x - r) * (x * x + u * x + v))
    x = _root_in_bracket(f, lo, hi, f(lo), f(hi))
    assert lo <= x <= hi
    assert _sign_change_near(f, x, ROOT_REL_TOL * max(abs(lo), abs(hi)))
    assert len(calls) <= 20


def test_root_in_bracket_ends_a_step_well_before_the_iteration_cap():
    r = 0.3
    f, calls = _counted(lambda x: -1.0 if x < r else 1.0)
    x = _root_in_bracket(f, 0.0, 1.0, -1.0, 1.0)
    assert abs(x - r) <= ROOT_REL_TOL
    assert len(calls) <= 80 < ROOT_MAX_ITER


def test_root_in_bracket_stops_where_no_float_lies_inside(monkeypatch):
    f, calls = _counted(lambda x: -1.0 if x <= 1.0 else 1.0)
    hi = math.nextafter(1.0, 2.0)
    assert _root_in_bracket(f, 1.0, hi, -1.0, 1.0) in (1.0, hi)
    assert calls == []
    # with a relative width below one float spacing, only the spacing ends
    # the search
    monkeypatch.setattr(optmech.solver, "ROOT_REL_TOL", 1e-17)
    for r, g in ((0.3, lambda x: -1.0 if x < 0.3 else 1.0), (math.sqrt(2.0), lambda x: x * x - 2.0)):
        f, calls = _counted(g)
        x = _root_in_bracket(f, 0.0, 2.0, f(0.0), f(2.0))
        assert abs(x - r) <= math.ulp(r)
        assert len(calls) <= 80 < ROOT_MAX_ITER


def test_a_kind_a_solve_stays_within_its_residual_budget(monkeypatch):
    # the two bracket ends and a superlinear search; bisection to the
    # rounding floor made 53
    calls = []
    residual = optmech.solver._kind_a_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(optmech.solver, "_kind_a_residual", counted)
    for c in (0.02, 0.05, 0.076):
        calls.clear()
        assert solve(Rectangle(c, c, 1.0, 1.0)).kind is StructureKind.A
        assert 0 < len(calls) <= 16, (c, len(calls))


def test_real_roots_in_interval_cubic():
    # (x - 0.2)(x - 0.7)(x + 1) = x^3 + 0.1 x^2 - 0.76 x + 0.14
    coeffs = (0.14, -0.76, 0.1, 1.0)
    roots = real_roots_in_interval(coeffs, 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.2, abs=1e-10)
    assert roots[1] == pytest.approx(0.7, abs=1e-10)
    assert real_roots_in_interval(coeffs, 0.3, 0.6) == []
    with pytest.raises(ValueError):
        real_roots_in_interval((1.0,) * 5, 0.0, 1.0)


def test_real_roots_on_the_interval_ends():
    # (x - 0.25)(x - 0.75)
    assert real_roots_in_interval((0.1875, -1.0, 1.0), 0.25, 0.75) == [0.25, 0.75]


def test_real_roots_just_outside_an_end_are_clamped_onto_it():
    # (x - r)(x + 3) with r 1e-13 above the upper end, then below the lower
    for r, lo, hi, end in ((1.0 + 1e-13, 0.0, 1.0, 1.0), (0.5 - 1e-13, 0.5, 1.0, 0.5)):
        assert real_roots_in_interval((-3.0 * r, 3.0 - r, 1.0), lo, hi) == [end]
    # 1e-8 outside is a root outside the interval
    r = 1.0 + 1e-8
    assert real_roots_in_interval((-3.0 * r, 3.0 - r, 1.0), 0.0, 1.0) == []


def test_real_roots_after_a_degree_drop():
    # a vanishing leading coefficient leaves (x - 0.2)(x - 0.3)
    roots = real_roots_in_interval((0.06, -0.5, 1.0, 0.0), 0.0, 1.0)
    assert roots == pytest.approx([0.2, 0.3], abs=1e-15)
    assert real_roots_in_interval((1.0, 0.0, 0.0), 0.0, 1.0) == []


@pytest.mark.parametrize("a,q", [(0.5, 1.5), (0.3, 1.0), (0.7, 0.25), (1.0 / 3.0, -2.0)])
def test_a_double_root_counts_once(a, q):
    # (x - a)^2 (x - q): rounding splits the double root into a pair about
    # 1e-8 apart, on the real axis or off it
    coeffs = (-a * a * q, a * a + 2.0 * a * q, -2.0 * a - q, 1.0)
    roots = real_roots_in_interval(coeffs, 0.0, 0.9)
    expected = sorted([a] + ([q] if 0.0 <= q <= 0.9 else []))
    assert roots == pytest.approx(expected, abs=1e-12)


def test_a_near_real_complex_pair_is_no_root():
    # (x - 0.5)^2 + 1e-6 has roots 0.5 +- 1e-3 i; times (x - 0.2)
    coeffs = (-0.050_000_2, 0.450_001, -1.2, 1.0)
    assert real_roots_in_interval(coeffs, 0.0, 1.0) == pytest.approx([0.2], abs=1e-15)
    assert real_roots_in_interval((0.250_001, -1.0, 1.0), 0.0, 1.0) == []


@pytest.mark.parametrize("gap,roots", [(1e-14, []), (1e-15, [0.5])])
def test_a_complex_pair_within_rounding_is_a_double_root(gap, roots):
    # (x - 0.5)^2 + gap has roots 0.5 +- sqrt(gap) i, both inside the
    # estimates' cluster width; the minimum value, gap, tells them apart
    # from a double root against 16 rounding units of the Horner scale 1
    assert real_roots_in_interval((0.25 + gap, -1.0, 1.0), 0.0, 1.0) == roots


def test_two_roots_inside_one_cluster_are_both_found():
    # (x - 0.5)(x - 0.5 - 5e-7): the estimates fall in one cluster with
    # the same sign at both of its ends; rounding the coefficients moves
    # roots this close by about 1e-16 / 5e-7
    r = 0.5 + 5e-7
    roots = real_roots_in_interval((0.5 * r, -0.5 - r, 1.0), 0.0, 1.0)
    assert roots == pytest.approx([0.5, r], abs=1e-9)


def test_exact_zero_low_coefficients_are_one_root_at_zero():
    # x^2 (x - 0.3): the zero coefficients are factored out, and the root
    # at 0 is reported once, by the same end rule as any other root
    coeffs = (0.0, 0.0, -0.3, 1.0)
    assert real_roots_in_interval(coeffs, 0.1, 1.0) == pytest.approx([0.3], abs=1e-15)
    roots = real_roots_in_interval(coeffs, 0.0, 1.0)
    assert roots[0] == 0.0 and roots[1:] == pytest.approx([0.3], abs=1e-15)
    assert real_roots_in_interval(coeffs, -1e-11, 1.0)[0] == 0.0
    assert real_roots_in_interval(coeffs, 1e-11, 1.0)[0] == 1e-11
    assert real_roots_in_interval((0.0, 0.0, 1.0), 0.0, 1.0) == [0.0]


def test_a_root_far_below_the_interval_keeps_its_relative_accuracy():
    # (x - 1e-200)(x^2 + 0.7 x - 0.3): polished in its cluster bracket,
    # 1e-6 wide, the root was resolved only to 4e-16 of that width
    r = 1e-200
    roots = real_roots_in_interval((0.3 * r, -0.3 - 0.7 * r, 0.7 - r, 1.0), 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(r, rel=1e-15, abs=0.0)
    assert roots[1] == pytest.approx(0.3, abs=1e-15)


# ---------------------------------------------------------------------------
# residuals


def test_residual_w_matches_polygon_measure():
    # the polynomial residual equals -b1 b2 D1 D2 times the measure of the
    # bundle region, for any diagonal-matched pair of edge prices
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    full, coincident = _sweep_kinks(rect.c1, rect.c2, rect.b1, rect.b2)
    mu = MuBar(rect)
    for p_a1 in (0.705, 0.71, 0.715):
        d1 = rect.c2 - 2.0 * rect.b2 + 3.0 * p_a1
        # the edge price's kink lies inside the sweep
        assert full < 4.0 * rect.c1 * (rect.b2 + rect.c2 - d1) / (3.0 * d1) < coincident
        p_a2 = solve_pa2_given_pa1(rect, p_a1)
        sh1 = alpha_params(rect, p_a1)
        sh2 = alpha_params(rect.swapped(), p_a2)
        big_p = (rect.c1 + sh1.end, rect.c2 + 0.5 * (2.0 * rect.b2 - rect.c2 - p_a1))
        p = big_p[0] + big_p[1] - rect.c1 - rect.c2
        menu = (
            NULL_ITEM,
            MenuItem(sh1.a, 1.0, rect.c2 + p_a1 + sh1.a * rect.c1),
            MenuItem(1.0, sh2.a, rect.c1 + p_a2 + sh2.a * rect.c2),
            MenuItem(1.0, 1.0, rect.c1 + rect.c2 + p),
        )
        regions = best_response_regions(rect, menu)
        w_mass = mu.mass(regions[3])
        d2 = rect.c1 - 2.0 * rect.b1 + 3.0 * p_a2
        lhs = residual_W(rect, p_a1, p_a2)
        rhs = -rect.b1 * rect.b2 * d1 * d2 * w_mass
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12), f"at p_a1={p_a1}: {lhs} vs {rhs}"


def test_solve_pa2_given_pa1_zeroes_diagonal_mismatch():
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    p_a1 = 0.71
    p_a2 = solve_pa2_given_pa1(rect, p_a1)
    sh1 = alpha_params(rect, p_a1)
    sh2 = alpha_params(rect.swapped(), p_a2)
    lhs = (rect.c1 + sh1.end) + (rect.c2 + 0.5 * (2.0 * rect.b2 - rect.c2 - p_a1))
    rhs = (rect.c1 + 0.5 * (2.0 * rect.b1 - rect.c1 - p_a2)) + (rect.c2 + sh2.end)
    assert lhs == pytest.approx(rhs, abs=1e-10), "both roof corners must sit on one diagonal"


def test_solve_pa2_rejects_invalid_inputs():
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_pa2_given_pa1(rect, 0.6)  # D1 <= 0
    with pytest.raises(ValueError):
        solve_pa2_given_pa1(Rectangle(0.1, 0.0, 1.0, 1.0), 0.7)


# ---------------------------------------------------------------------------
# zero-corner closed forms


def test_unit_square_closed_form():
    mech = solve(UNIT)
    assert mech.kind is StructureKind.A
    assert mech.params.p_a1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert mech.params.p == pytest.approx((4.0 - SQRT2) / 3.0, abs=1e-14)
    assert mech.params.P == pytest.approx(((2.0 - SQRT2) / 3.0, 2.0 / 3.0), abs=1e-14)
    assert mech.revenue == pytest.approx(0.5492010046202291, abs=1e-13)


def test_skewed_zero_corner_drops_one_lottery():
    mech = solve(Rectangle(0.0, 0.0, 3.0, 1.0))
    assert mech.kind is StructureKind.B
    assert mech.params.p_a1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert mech.params.p == pytest.approx(11.0 / 6.0, abs=1e-14), "critical price b1/2 + b2/3"
    assert mech.revenue == pytest.approx(1.070987654320988, abs=1e-12)
    mirrored = solve(Rectangle(0.0, 0.0, 1.0, 5.0))
    assert mirrored.kind is StructureKind.F
    assert mirrored.params.p == pytest.approx(17.0 / 6.0, abs=1e-13)


def test_zero_corner_ratio_two_is_continuous():
    # at zero offsets the side ratio 2 parts the two-lottery structure
    # from the one-lottery one
    low = solve(Rectangle(0.0, 0.0, 2.0 - 1e-12, 1.0))
    high = solve(Rectangle(0.0, 0.0, 2.0 + 1e-12, 1.0))
    assert abs(low.revenue - high.revenue) < 1e-9
    assert abs(bundle_item(low).t - bundle_item(high).t) < 1e-9


def test_zero_corner_at_ratio_two_is_one_kind_at_every_scale():
    # exactly at the ratio the two-lottery structure's good-1 kink is 0 and
    # its residual there rounds to 0 or an ulp either side, so the kink
    # came out 0 or up to 3e-16 b2, and the kind A or F by the scale
    rng = random.Random(2)
    for _ in range(400):
        b = math.exp(rng.uniform(-4.0, 4.0))
        assert solve(Rectangle(0.0, 0.0, b, 2.0 * b)).kind is StructureKind.F
        assert solve(Rectangle(0.0, 0.0, 2.0 * b, b)).kind is StructureKind.B
    for lam in (1.0, 0.296875):
        assert solve(Rectangle(0.0, 0.0, 0.3, 0.6).scaled(lam)).kind is StructureKind.F


# ---------------------------------------------------------------------------
# solved structures (frozen values and certificates)


def test_symmetric_small_corner_kind_a():
    mech = solve(Rectangle(0.05, 0.05, 1.0, 1.0))
    assert mech.kind is StructureKind.A
    assert mech.revenue == pytest.approx(0.6129024062569957, abs=1e-12)
    assert mech.params.a1 == pytest.approx(mech.params.a2, abs=1e-9)
    assert mech.menu[1].t == pytest.approx(mech.menu[2].t, abs=1e-9)
    # edge shuffles vanish at the solved prices
    sh = alpha_params(Rectangle(0.05, 0.05, 1.0, 1.0), mech.params.p_a1)
    assert abs(sh.mass()) < 1e-12 and abs(sh.first_moment()) < 1e-12


def test_two_lottery_region_boundary_near_threshold():
    assert solve(Rectangle(0.076, 0.076, 1.0, 1.0)).kind is StructureKind.A
    mech = solve(Rectangle(0.077, 0.077, 1.0, 1.0))
    assert mech.kind is StructureKind.C, "beyond the diagonal threshold only bundling survives"
    assert mech.revenue == pytest.approx(0.6500929774511377, abs=1e-12)


def test_pure_bundling_frozen_point():
    mech = solve(Rectangle(2.0, 2.0, 1.0, 1.0))
    assert mech.kind is StructureKind.C
    assert bundle_item(mech).t == pytest.approx(4.0 + (math.sqrt(22.0) - 4.0) / 3.0, abs=1e-12)
    assert mech.revenue == pytest.approx(4.118116545041313, abs=1e-12)


def test_interior_small_small_falls_back_to_bundling():
    mech = solve(Rectangle(1.0, 1.0, 1.0, 1.0))
    assert mech.kind is StructureKind.C
    assert bundle_item(mech).t == pytest.approx(2.0 + (math.sqrt(10.0) - 2.0) / 3.0, abs=1e-12)


def test_ramp_lottery_structure_kind_d():
    rect = Rectangle(0.2, 2.8, 1.0, 1.0)
    mech = solve(rect)
    assert mech.kind is StructureKind.D
    assert mech.params.p == pytest.approx(0.4, abs=1e-14), "bundle boundary at (b1 - c1)/2"
    assert mech.revenue == pytest.approx(3.1626672471591504, abs=1e-12)
    p_mass, p_moment = beta_p_of(rect, mech.params.p_a1, mech.params.a1)
    assert p_mass == pytest.approx(0.4, abs=1e-9), "shuffle mass-zero length equals the boundary"
    assert p_moment == pytest.approx(0.4, abs=1e-9), "shuffle moment-zero length equals the boundary"


def test_mirrored_ramp_structure_kind_g():
    mech = solve(Rectangle(2.8, 0.2, 1.0, 1.0))
    assert mech.kind is StructureKind.G
    assert mech.revenue == pytest.approx(3.1626672471591504, abs=1e-12)
    assert mech.menu[1].q1 == 1.0 and mech.menu[1].q2 == pytest.approx(0.30140630750898517, abs=1e-9)


def test_no_exclusion_structures():
    mech = solve(Rectangle(0.5, 8.0, 1.0, 1.0))
    assert mech.kind is StructureKind.E
    assert mech.menu == (MenuItem(0.0, 1.0, 8.0), MenuItem(1.0, 1.0, 8.75))
    assert mech.revenue == pytest.approx(8.5625, abs=1e-14), "c2 + (c1+b1)^2/(4 b1)"
    sym = solve(Rectangle(8.0, 0.5, 1.0, 1.0))
    assert sym.kind is StructureKind.H
    assert sym.menu == (MenuItem(1.0, 0.0, 8.0), MenuItem(1.0, 1.0, 8.75))


def test_one_lottery_kind_b_rational_instance():
    mech = solve(Rectangle(4.0, 4.0, 12.0, 3.0))
    assert mech.kind is StructureKind.B
    assert mech.params.a1 == pytest.approx(0.5, abs=1e-10)
    assert mech.menu[1].t == pytest.approx(8.0, abs=1e-9)
    assert bundle_item(mech).t == pytest.approx(12.0, abs=1e-9)
    assert mech.revenue == pytest.approx(88.0 / 9.0, abs=1e-9)


def test_zero_c1_route_pins_flat_lottery():
    rect = Rectangle(0.0, 0.3, 1.0, 1.0)
    mech = solve(rect)
    assert mech.kind in (StructureKind.A, StructureKind.B)
    # the kink is the c1 -> 0 limit: the flat lottery ends at P
    assert mech.params.a1 == 0.0 and mech.params.m1 == mech.params.P[0] - rect.c1
    assert mech.params.p_a1 == pytest.approx((2.0 - 0.3) / 3.0, abs=1e-14)
    assert mech.revenue == pytest.approx(0.7578525462962963, abs=1e-12)


def test_solved_bundle_region_measure_vanishes():
    for rect in (Rectangle(0.05, 0.05, 1.0, 1.0), Rectangle(0.0, 0.3, 1.0, 1.0), Rectangle(0.2, 2.8, 1.0, 1.0)):
        mech = solve(rect)
        mu = MuBar(rect)
        regions = best_response_regions(rect, mech.menu)
        for item, poly in zip(mech.menu, regions):
            if item.is_bundle:
                mass = mu.mass(poly)
                assert abs(mass) < 1e-9 * rect.area, f"bundle-region measure {mass} at {rect}"


def test_solve_is_deterministic():
    a = solve(Rectangle(0.07, 0.11, 1.3, 0.9))
    b = solve(Rectangle(0.07, 0.11, 1.3, 0.9))
    assert a == b


def test_revenue_beats_naive_benchmarks():
    # the optimum dominates pure bundling, separate sale and the E/H menus
    for rect in (UNIT, Rectangle(0.05, 0.05, 1.0, 1.0), Rectangle(0.2, 2.8, 1.0, 1.0)):
        assert solve(rect).revenue >= rival_revenue(rect) - 1e-12


# ---------------------------------------------------------------------------
# the SmallSmall threshold with a zero or tiny offset (ROADMAP item 1)


@pytest.mark.parametrize(
    "rect,kind,revenue",
    [
        # just below c2 = 2 b2 at c1 = 0: the one-lottery root sits near b1/2
        (Rectangle(0.0, 1.999998, 2.3220394, 1.0), StructureKind.B, 2.5805078500003313),
        # on c2 = 2 b2 the flat lottery prices good 2 at c2: separate sale
        (Rectangle(0.0, 2.0, 2.3220394, 1.0), StructureKind.B, 2.58050985),
        # the admissible cubic root is the bracket start r1
        (
            Rectangle(0.025046799746115234, 1.9298110455140176, 1.352252268428042, 1.0),
            StructureKind.B,
            2.281767928265737,
        ),
        # on c2 = 2 b2 the one-lottery menu is the E menu, c2 + b1/4
        (Rectangle(0.0, 2.65625, 1.0, 1.328125), StructureKind.B, 2.90625),
        # on the curve the corner point P sits on z2 = c2, an ulp below by
        # rounding; rejecting it ends in bundling at 1.76039
        (
            Rectangle(0.6682533869744467, 0.783100649397846, 2.184779298022095, 0.5749725701060531),
            StructureKind.B,
            1.7909324776242415,
        ),
    ],
)
def test_small_small_threshold_is_never_beaten(rect, kind, revenue):
    mech = solve(rect)
    assert mech.kind is kind
    assert mech.revenue >= rival_revenue(rect) * (1.0 - 1e-12)
    assert mech.revenue == pytest.approx(revenue, rel=1e-12)


@pytest.mark.parametrize(
    "rect,kind",
    [
        (Rectangle(0.0, 3.75e-10, 1.0, 1.25), StructureKind.A),
        (Rectangle(0.3, 1e-9, 1.0, 1.0), StructureKind.F),
        (Rectangle(1e-9, 0.3, 1.0, 1.0), StructureKind.B),
        (Rectangle(1e-9, 1e-9, 1.0, 1.0), StructureKind.A),
    ],
)
def test_a_tiny_corner_offset_scales_to_rounding(rect, kind):
    # the edge offsets D_i are of the order of the square root of the
    # corner offset; solved in the edge prices they kept only a few digits,
    # and the menu prices moved by up to 1e-6 relative under scaling
    base = solve(rect)
    assert base.kind is kind
    for lam in (0.37, 1.5, 7.3):
        scaled = solve(rect.scaled(lam))
        assert scaled.kind is kind
        for item, ref in zip(scaled.menu, base.menu):
            assert item.t == pytest.approx(lam * ref.t, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(VERIFY_CENTRES))
def test_a_support_far_from_unit_size_is_solved_at_unit_size(kind):
    # scaling by a power of 4 is exact, square roots included, so the
    # solve of a scaled support is the scaled solve, field for field; at
    # 4^110 the unscaled solve returned kind C on the D and G centres
    rect = VERIFY_CENTRES[kind]
    base = solve(rect)
    assert base.kind.value == kind
    for j in (21, -21, 110, -110, 240, -240):
        assert solve(rect.scaled(4.0**j)) == base.scaled(4.0**j), j


def _fixed_region_supports(region, rng):
    """Seeded supports inside a region that fixes the kind and on and beside
    its thresholds, each with whether ``classify`` puts it in the region.
    VeryLargeSmall takes the mirrors of the SmallVeryLarge supports."""
    out = []
    for _ in range(40):
        b1, b2 = (math.exp(rng.uniform(math.log(0.3), math.log(3.0))) for _ in range(2))
        if region is PhaseRegion.BOTH_LARGE:
            c1, c2 = (b * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0)) for b in (b1, b2))
            out += [
                (Rectangle(c1, c2, b1, b2), True),
                (Rectangle(math.nextafter(b1, math.inf), math.nextafter(b2, math.inf), b1, b2), True),
                (Rectangle(b1, c2, b1, b2), False),  # c1 = b1 is SmallLarge
                (Rectangle(c1, b2, b1, b2), False),  # c2 = b2 is LargeSmall
            ]
            continue
        c1 = rng.choice((0.0, rng.uniform(0.0, 1.0))) * b1
        hi = 2.0 * b2 * (b1 / (b1 - c1)) ** 2  # the very-large threshold
        out += [
            (Rectangle(c1, hi * (1.0 + 10.0 ** rng.uniform(-12.0, 1.0)), b1, b2), True),
            # half-open: the threshold is SmallVeryLarge's, but at c1 = 0
            # it is the SmallSmall curve's, which comes first
            (Rectangle(c1, hi, b1, b2), c1 > 0.0),
            (Rectangle(c1, math.nextafter(hi, 0.0), b1, b2), False),
            (Rectangle(b1, hi, b1, b2), False),  # c1 = b1 is SmallLarge at every c2
        ]
    if region is PhaseRegion.VERY_LARGE_SMALL:
        out = [(rect.swapped(), inside) for rect, inside in out]
    return out


def _open_region_supports(region, rng):
    """Seeded supports in a region whose kind comes from roots: inside it,
    with zero offsets, and on and beside the SmallSmall curve.  LargeSmall
    takes the mirrors of the SmallLarge supports."""
    out = []
    for _ in range(40):
        b1, b2 = (math.exp(rng.uniform(math.log(0.3), math.log(3.0))) for _ in range(2))
        c1 = rng.choice((0.0, rng.uniform(0.0, 1.0))) * b1
        curve = 2.0 * b2 * ((b1 + c1) / (b1 + 3.0 * c1))  # the SmallSmall curve
        if region is PhaseRegion.SMALL_SMALL:
            c2s = [0.0, rng.uniform(0.0, 1.0) * curve, curve, math.nextafter(curve, 0.0)]
        else:
            hi = 2.0 * b2 * (b1 / (b1 - c1)) ** 2  # the very-large threshold
            c2s = [rng.uniform(curve, hi), math.nextafter(curve, math.inf), math.nextafter(hi, 0.0)]
        out += [Rectangle(c1, c2, b1, b2) for c2 in c2s]
    if region is PhaseRegion.LARGE_SMALL:
        out = [rect.swapped() for rect in out]
    return out


#: The kind that a region fixes: pure bundling where both offsets are high,
#: and the good with the very large offset sold alone where the other is low.
_REGION_KIND = {
    PhaseRegion.BOTH_LARGE: StructureKind.C,
    PhaseRegion.SMALL_VERY_LARGE: StructureKind.E,
    PhaseRegion.VERY_LARGE_SMALL: StructureKind.H,
}


@pytest.mark.parametrize("region", list(PhaseRegion), ids=lambda region: region.value)
def test_solve_kind_is_the_kind_solve_returns(region):
    # the phase map takes each cell's kind from solve_kind, which stops
    # before the record; at 4^-520 the coordinates are subnormal, scaling
    # rounds them, and classify on them as given put a kind-D support in
    # SmallVeryLarge
    rng = random.Random(20261019)
    if region in _REGION_KIND:
        supports = _fixed_region_supports(region, rng)
    else:
        supports = [(rect, False) for rect in _open_region_supports(region, rng)]
    for rect, inside in supports:
        for j in (0, 30, -30, -520):
            scaled = rect.scaled(4.0**j)
            kind = solve_kind(scaled)
            if inside and j != -520:
                assert kind is _REGION_KIND[region], (rect, j)
            assert solve(scaled).kind is kind, (rect, j)


def _zero_offset_supports(n):
    # seeded SmallSmall supports with c1 = 0 (c2 <= 2 b2), and their mirrors
    rng = random.Random(20261018)
    rects = []
    for _ in range(n):
        b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        rect = Rectangle(0.0, rng.uniform(0.0, 2.0 * b2), b1, b2)
        rects += [rect, rect.swapped()]
    return rects


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10, 1e-8])
def test_a_zero_corner_offset_is_the_limit_of_small_ones(eps):
    # zero offsets take the path of positive ones, so moving a zero offset
    # to eps b keeps the kind and moves the revenue by O(eps)
    for rect in _zero_offset_supports(40):
        c1, c2, b1, b2 = rect.c1, rect.c2, rect.b1, rect.b2
        zero = Rectangle(0.0, 0.0, b1, b2)
        pairs = [
            (rect, Rectangle(c1 or eps * b1, c2 or eps * b2, b1, b2)),
            (zero, Rectangle(eps * b1, eps * b2, b1, b2)),
        ]
        for base, moved in pairs:
            ref, got = solve(base), solve(moved)
            assert got.kind is ref.kind, (base, moved)
            assert abs(got.revenue - ref.revenue) <= 10.0 * eps * ref.revenue, (base, moved)


@pytest.mark.parametrize("c1", [1e-30, 1e-200, 5e-324])
def test_an_offset_far_below_the_root_resolution_solves_like_zero(c1):
    # with no one-lottery root at c1 = 0, the kind-B cubic keeps two roots
    # of order c1 (a1 >> 1) far below the kink where a1 = 1; neither may
    # pass for a one-lottery menu, which would earn 1.9% below bundling
    zero = Rectangle(0.0, 1.3632366061483172, 0.463836411344813, 1.3742297462905475)
    ref, got = solve(zero), solve(Rectangle(c1, zero.c2, zero.b1, zero.b2))
    assert ref.kind is got.kind is StructureKind.C
    assert got.revenue == pytest.approx(ref.revenue, rel=1e-15)


def _bits(mech):
    """The kind and every float a record holds, as hex, so that equal is
    equal to the bit."""
    params = [v for v in vars(mech.params).values() if v is not None]
    return (
        mech.kind,
        [x.hex() for v in params for x in (v if isinstance(v, tuple) else (v,))],
        [(i.q1.hex(), i.q2.hex(), i.t.hex()) for i in mech.menu],
        mech.revenue.hex(),
        [n.hex() for n in mech.net_prices],
    )


#: A SmallSmall support solved as pure bundling after both one-lottery
#: searches, on the support and on its mirror, find no kink.
SMALL_SMALL_C = Rectangle(0.05139164478185963, 0.6383455255767818, 0.8848183722526561, 1.4397147540733368)


@pytest.mark.parametrize(
    "rect",
    [*VERIFY_CENTRES.values(), *(rect.swapped() for rect in VERIFY_CENTRES.values()), SMALL_SMALL_C],
    ids=[*VERIFY_CENTRES, *(f"{kind}-swapped" for kind in VERIFY_CENTRES), "C-small-small"],
)
def test_each_solve_makes_its_record_once(rect, monkeypatch):
    # one Mechanism per solve: the mirrored kinds F, G and H are built in
    # one step from the structure solved with the goods exchanged, not as
    # B, D or E and then mirrored, and a support far from unit size is
    # solved at unit size and its one record scaled as it is made, not
    # made there and scaled by Mechanism.scaled()
    base = solve(rect)
    want = {j: _bits(base.scaled(4.0**j)) for j in (30, -30)}
    made = []
    init = Mechanism.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.kind)

    searched = []

    def roots(*args):
        searched.append(args)
        return real_roots_in_interval(*args)

    priced = []
    revenue = optmech.mechanism._revenue

    def counted_revenue(rows, rect):
        priced.append(rows)
        return revenue(rows, rect)

    monkeypatch.setattr(Mechanism, "__init__", counted)
    monkeypatch.setattr(optmech.solver, "real_roots_in_interval", roots)
    monkeypatch.setattr(optmech.mechanism, "_revenue", counted_revenue)
    for j in (0, 30, -30):
        for calls in (made, searched, priced):
            calls.clear()
        mech = solve(rect.scaled(4.0**j))
        assert made == [mech.kind], j
        # and one priced menu: the solver compares no structures by revenue
        assert len(priced) == 1, j
        if rect is SMALL_SMALL_C:
            assert mech.kind is StructureKind.C and len(searched) == 2
        if j:
            assert _bits(mech) == want[j], j


def _rebuilt(mech):
    """The record made again field by field through the public
    constructors."""
    q = mech.params
    params = SolveParams(
        p_a1=q.p_a1, p_a2=q.p_a2, a1=q.a1, a2=q.a2, m1=q.m1, m2=q.m2, p=q.p, P=q.P, Q=q.Q
    )
    menu = tuple(MenuItem(item.q1, item.q2, item.t) for item in mech.menu)
    return Mechanism(mech.kind, params, menu, mech.revenue, tuple(mech.net_prices))


def _mirrored_by_hand(mech):
    """The record of the support with the goods exchanged, written out:
    indices 1 and 2 trade places, P and Q trade places and coordinates,
    and kind A's two lotteries trade places in the menu."""
    q = mech.params

    def flip(point):
        return None if point is None else (point[1], point[0])

    params = SolveParams(
        p_a1=q.p_a2, p_a2=q.p_a1, a1=q.a2, a2=q.a1, m1=q.m2, m2=q.m1, p=q.p, P=flip(q.Q), Q=flip(q.P)
    )
    order = (0, 2, 1, 3) if mech.kind is StructureKind.A else range(len(mech.menu))
    menu = tuple(MenuItem(mech.menu[i].q2, mech.menu[i].q1, mech.menu[i].t) for i in order)
    nets = tuple(mech.net_prices[i] for i in order)
    return Mechanism(mech.kind.swapped(), params, menu, mech.revenue, nets)


def _scaled_by_hand(mech, lam):
    """The record of the support scaled by lam, written out: every length
    and price scales, the lottery weights do not."""
    q = mech.params

    def times(v):
        return None if v is None else lam * v

    def point(pt):
        return None if pt is None else (lam * pt[0], lam * pt[1])

    params = SolveParams(
        p_a1=times(q.p_a1), p_a2=times(q.p_a2), a1=q.a1, a2=q.a2, m1=times(q.m1), m2=times(q.m2),
        p=times(q.p), P=point(q.P), Q=point(q.Q),
    )
    menu = tuple(MenuItem(item.q1, item.q2, lam * item.t) for item in mech.menu)
    return Mechanism(mech.kind, params, menu, lam * mech.revenue, tuple(lam * n for n in mech.net_prices))


@pytest.mark.parametrize("name", list(VERIFY_CENTRES))
def test_each_solved_record_is_the_one_its_fields_make(name):
    # build_mechanism writes each record in one step; the public
    # constructors, run field by field on the centre's record, on its
    # mirror written out by hand and on both scaled by 4^30, make the same
    # records to the bit, net prices and every None parameter included
    centre = VERIFY_CENTRES[name]
    mech = solve(centre)
    lam = 4.0**30
    mirrored = _mirrored_by_hand(mech)
    cases = {
        "centre": (centre, _rebuilt(mech)),
        "swapped": (centre.swapped(), mirrored),
        "scaled": (centre.scaled(lam), _scaled_by_hand(mech, lam)),
        "swapped-scaled": (centre.swapped().scaled(lam), _scaled_by_hand(mirrored, lam)),
    }
    for case, (rect, want) in cases.items():
        got = solve(rect)
        assert got == want and hash(got) == hash(want), case
        assert vars(got.params) == vars(want.params), case
        assert _bits(got) == _bits(want), case


def test_a_bundle_whose_revenue_sum_overflows_is_priced():
    # the bundle price 5.99e307 times its region's area overflows, and so
    # does the square of 2 (c1 + c2)/3 in the bundle offset's quadratic
    rect = Rectangle(2.964164787888919e307, 3.02824131118571e307, 2.12409924432396, 6.715973230026775)
    mech = solve(rect)
    assert mech.kind is StructureKind.C
    s = rect.c1 + rect.c2
    # p* = 2 b1 b2 / (3 (s + sqrt(s^2 + 6 b1 b2))), about b1 b2 / s here
    assert mech.params.p == pytest.approx(rect.area / s, rel=1e-15)
    # the bundle bound: the bundle at price s sells to every type, and no
    # menu earns more than E[z1 + z2]
    assert math.isfinite(mech.revenue)
    assert s * (1.0 - 1e-15) <= mech.revenue <= (s + 0.5 * (rect.b1 + rect.b2)) * (1.0 + 1e-15)


def test_one_lottery_corner_below_the_support_is_rejected():
    # on the SmallSmall curve the corner point P sits on z2 = c2, at the
    # edge offset D1 = 4 b2 - 2 c2; P[1] = c2 + (4 b2 - 2 c2 - D1) / 6, and
    # D1 = 4 c1 (b2 + c2) / (3 m1 + 4 c1) falls as the kink m1 grows
    rect = Rectangle(0.6682533869744467, 0.783100649397846, 2.184779298022095, 0.5749725701060531)
    d1 = 4.0 * rect.b2 - 2.0 * rect.c2
    m1 = 4.0 * rect.c1 * (rect.b2 + rect.c2 - d1) / (3.0 * d1)
    below = _kind_b_params(rect, m1 * (1.0 - 8.0 * sys.float_info.epsilon))
    assert below is not None and 0.0 < rect.c2 - below["P"][1] < 1e-15
    assert _kind_b_params(rect, m1 * (1.0 - 1e-12)) is None


def test_solver_is_plain_polynomial_algebra():
    # solver.py imports only the mechanism builder, the types and the
    # standard library, and does not reach for the measure, the clipper or
    # numpy: every root comes from Newton's method or the bracket search
    path = pathlib.Path(optmech.solver.__file__)
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("mechanism", "types"), f"solver imports .{node.module}"
            if node.module == "mechanism":
                names = [a.name for a in node.names]
                assert names == ["build_mechanism"], f"solver imports {names} from .mechanism"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"solver imports {name}"
    text = path.read_text()
    for name in ("MuBar", "clip", "SCAN_PANELS"):
        assert not re.search(rf"\b{name}\b", text), f"solver names {name}"
    # nor does the linear family, whose every root is one bracketed search
    for module in (optmech.solver, optmech.linear):
        text = pathlib.Path(module.__file__).read_text()
        for name in ("numpy", "np", "npoly"):
            assert not re.search(rf"\b{name}\b", text), f"{module.__name__} names {name}"


def test_solve_path_shares_no_module_with_the_verifier():
    # the certificate's measure and the oracle check the solver's output;
    # neither may sit on the path that produces it.  The linear family
    # prices its menu in closed form, so it clips no polygon either.
    verifier = {"measures", "oracle"}
    forbidden = {
        optmech.solver: verifier,
        optmech.mechanism: verifier,
        optmech.linear: verifier | {"geometry"},
    }
    for module, banned in forbidden.items():
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                parts = set(name.split("."))
                assert not parts & banned, f"{module.__name__} imports {name}"


def test_the_verifier_reads_only_the_menu():
    # the certificate reads a mechanism's menu, net prices and revenue:
    # oracle.py names neither the solver's parameters nor its kinds, and
    # reads no kind or params attribute
    tree = ast.parse(pathlib.Path(optmech.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {a.name.split(".")[-1] for a in node.names}
            assert not names & {"SolveParams", "StructureKind"}, f"oracle.py imports {names} (line {node.lineno})"
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("kind", "params"), f"oracle.py reads .{node.attr} (line {node.lineno})"
