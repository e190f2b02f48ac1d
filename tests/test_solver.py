"""Decision procedure: classification, brackets, residuals, solved structures."""

import math

import pytest

from optmech.geometry import best_response_regions
from optmech.measures import MuBar, alpha_params, beta_p_of
from optmech.mechanism import expected_revenue, menu_from_structure
from optmech.solver import (
    NoRoot,
    PhaseRegion,
    classify,
    critical_constants,
    real_roots_in_interval,
    residual_W,
    solve,
    solve_pa2_given_pa1,
    solve_zero_corner,
)
from optmech.types import MenuItem, Rectangle, SolveParams, StructureKind

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
# critical constants and root isolation


def test_critical_constants_frozen_point():
    cc = critical_constants(Rectangle(0.1, 0.1, 1.0, 1.0))
    assert cc.r1 == pytest.approx(0.7, abs=1e-12), "closed form (2*2.5 - 0.1*1.7)/(3*2.3)"
    assert cc.r2 == pytest.approx(0.7, abs=1e-12)
    assert cc.r1 < cc.p_a1_star < 1.0


def test_bundle_critical_price_closed_form():
    cc = critical_constants(Rectangle(2.0, 2.0, 1.0, 1.0))
    assert cc.p_star == pytest.approx((math.sqrt(22.0) - 4.0) / 3.0, abs=1e-14)
    cc0 = critical_constants(UNIT)
    assert cc0.p_star == pytest.approx(math.sqrt(6.0) / 3.0, abs=1e-14)


def test_real_roots_in_interval_cubic():
    # (x - 0.2)(x - 0.7)(x + 1) = x^3 + 0.1 x^2 - 0.76 x + 0.14
    coeffs = (0.14, -0.76, 0.1, 1.0)
    roots = real_roots_in_interval(coeffs, 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.2, abs=1e-10)
    assert roots[1] == pytest.approx(0.7, abs=1e-10)
    assert real_roots_in_interval(coeffs, 0.3, 0.6) == []
    with pytest.raises(ValueError):
        real_roots_in_interval((1.0,) * 6, 0.0, 1.0)


# ---------------------------------------------------------------------------
# residuals


def test_residual_w_matches_polygon_measure():
    # the polynomial residual equals -b1 b2 D1 D2 times the measure of the
    # bundle region, for any diagonal-matched pair of edge prices
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    cc = critical_constants(rect)
    mu = MuBar(rect)
    for p_a1 in (0.705, 0.71, 0.715):
        assert cc.r1 < p_a1 < cc.p_a1_star
        p_a2 = solve_pa2_given_pa1(rect, p_a1)
        sh1 = alpha_params(rect, p_a1)
        sh2 = alpha_params(rect.swapped(), p_a2)
        big_p = (rect.c1 + sh1.m, rect.c2 + 0.5 * (2.0 * rect.b2 - rect.c2 - p_a1))
        p = big_p[0] + big_p[1] - rect.c1 - rect.c2
        params = SolveParams(p_a1=p_a1, p_a2=p_a2, a1=sh1.a, a2=sh2.a, p=p)
        menu = menu_from_structure(StructureKind.A, params, rect)
        regions = best_response_regions(rect, menu)
        w_mass = mu.mass(regions[3])
        d1 = rect.c2 - 2.0 * rect.b2 + 3.0 * p_a1
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
    lhs = (rect.c1 + sh1.m) + (rect.c2 + 0.5 * (2.0 * rect.b2 - rect.c2 - p_a1))
    rhs = (rect.c1 + 0.5 * (2.0 * rect.b1 - rect.c1 - p_a2)) + (rect.c2 + sh2.m)
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
    # the side-ratio-2 boundary is shared by both closed-form branches
    low = solve_zero_corner(Rectangle(0.0, 0.0, 2.0 - 1e-12, 1.0))
    high = solve_zero_corner(Rectangle(0.0, 0.0, 2.0 + 1e-12, 1.0))
    assert abs(low.revenue - high.revenue) < 1e-9
    assert abs(low.bundle_item().t - high.bundle_item().t) < 1e-9


def test_zero_corner_rejects_nonzero_corner():
    with pytest.raises(ValueError):
        solve_zero_corner(Rectangle(0.1, 0.0, 1.0, 1.0))


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
    assert mech.bundle_item().t == pytest.approx(4.0 + (math.sqrt(22.0) - 4.0) / 3.0, abs=1e-12)
    assert mech.revenue == pytest.approx(4.118116545041313, abs=1e-12)


def test_interior_small_small_falls_back_to_bundling():
    mech = solve(Rectangle(1.0, 1.0, 1.0, 1.0))
    assert mech.kind is StructureKind.C
    assert mech.bundle_item().t == pytest.approx(2.0 + (math.sqrt(10.0) - 2.0) / 3.0, abs=1e-12)


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
    assert mech.bundle_item().t == pytest.approx(12.0, abs=1e-9)
    assert mech.revenue == pytest.approx(88.0 / 9.0, abs=1e-9)


def test_zero_c1_route_pins_flat_lottery():
    mech = solve(Rectangle(0.0, 0.3, 1.0, 1.0))
    assert mech.kind in (StructureKind.A, StructureKind.B)
    assert mech.params.a1 == 0.0 and mech.params.m1 == 0.0
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
    # the optimum dominates pure bundling at the critical price and
    # separate single-good sales wherever those are feasible menus
    for rect in (UNIT, Rectangle(0.05, 0.05, 1.0, 1.0), Rectangle(0.2, 2.8, 1.0, 1.0)):
        mech = solve(rect)
        cc = critical_constants(rect)
        bundle_only = (MenuItem(0.0, 0.0, 0.0), MenuItem(1.0, 1.0, rect.c1 + rect.c2 + cc.p_star))
        assert mech.revenue >= expected_revenue(bundle_only, rect) - 1e-12
