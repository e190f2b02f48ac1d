"""Decision procedure: classification, brackets, residuals, solved structures."""

import ast
import math
import pathlib
import re
import sys

import pytest

import optmech.solver
from helpers import rival_revenue
from optmech.geometry import best_response_regions
from optmech.measures import MuBar, alpha_params, beta_p_of
from optmech.mechanism import menu_from_structure
from optmech.solver import (
    NoRoot,
    _kind_b_params,
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


def test_real_roots_of_a_quartic_with_four_in_the_interval():
    # (x - 0.1)(x - 0.35)(x - 0.6)(x - 0.9)
    coeffs = (0.0189, -0.2955, 1.25, -1.95, 1.0)
    assert real_roots_in_interval(coeffs, 0.0, 1.0) == pytest.approx([0.1, 0.35, 0.6, 0.9], abs=1e-15)


@pytest.mark.parametrize("a,q", [(0.5, 1.5), (0.3, 1.0), (0.7, 0.25), (1.0 / 3.0, -2.0)])
def test_a_double_root_counts_once(a, q):
    # (x - a)^2 (x - q): the companion matrix splits the double root into a
    # pair about 1e-8 apart, on the real axis or off it
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
    # eigenvalue cluster width; the minimum value, gap, tells them apart
    # from a double root against 16 rounding units of the Horner scale 1
    assert real_roots_in_interval((0.25 + gap, -1.0, 1.0), 0.0, 1.0) == roots


def test_two_roots_inside_one_cluster_are_both_found():
    # (x - 0.5)(x - 0.5 - 5e-7): the eigenvalues fall in one cluster with
    # the same sign at both of its ends; rounding the coefficients moves
    # roots this close by about 1e-16 / 5e-7
    r = 0.5 + 5e-7
    roots = real_roots_in_interval((0.5 * r, -0.5 - r, 1.0), 0.0, 1.0)
    assert roots == pytest.approx([0.5, r], abs=1e-9)


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


def test_one_lottery_corner_below_the_support_is_rejected():
    # on the SmallSmall curve the corner point P sits on z2 = c2, at the
    # edge offset D1 = 4 b2 - 2 c2; P[1] = c2 + (4 b2 - 2 c2 - D1) / 6
    rect = Rectangle(0.6682533869744467, 0.783100649397846, 2.184779298022095, 0.5749725701060531)
    d1 = 4.0 * rect.b2 - 2.0 * rect.c2
    below = _kind_b_params(rect, d1 * (1.0 + 8.0 * sys.float_info.epsilon))
    assert below is not None and 0.0 < rect.c2 - below.P[1] < 1e-15
    assert _kind_b_params(rect, d1 * (1.0 + 1e-12)) is None


def test_solver_is_plain_polynomial_algebra():
    # solver.py imports only the mechanism builder, the types, the standard
    # library and numpy, and does not reach for the measure or the clipper
    path = pathlib.Path(optmech.solver.__file__)
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module in ("mechanism", "types"), f"solver imports .{node.module}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"solver imports {name}"
    text = path.read_text()
    for name in ("MuBar", "clip", "clip_many", "SCAN_PANELS"):
        assert not re.search(rf"\b{name}\b", text), f"solver names {name}"
