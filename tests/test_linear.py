"""Linear-density family: balance equations, solved branches, revenue."""

import math

import numpy as np
import pytest

from optmech.linear import (
    C_MAX,
    GenShuffleAlpha,
    LinearDensityInstance,
    LinearSolution,
    NoConvergence,
    OutOfRange,
    linear_revenue,
    solve_linear,
)

SQRT06 = math.sqrt(0.6)


def _grid_revenue(sol: LinearSolution, c: float, n: int) -> float:
    """Midpoint best-response quadrature of the menu revenue."""
    xs = c + (np.arange(n) + 0.5) / n
    z1, z2 = np.meshgrid(xs, xs, indexing="ij")
    best_u = np.zeros_like(z1)
    best_t = np.zeros_like(z1)
    for item in sol.menu():
        u = item.q1 * z1 + item.q2 * z2 - item.t
        take = u > best_u
        best_t = np.where(take, item.t, best_t)
        best_u = np.maximum(best_u, u)
    weight = 4.0 * z1 * z2 / (2.0 * c + 1.0) ** 2
    return float((best_t * weight).sum() / (n * n))


def test_instance_validation_and_density():
    inst = LinearDensityInstance(0.1)
    assert inst.z_min == 0.1 and inst.z_max == 1.1
    assert inst.cdf(inst.z_min) == 0.0
    assert inst.cdf(inst.z_max) == pytest.approx(1.0, abs=1e-15)
    assert inst.density(0.5) == pytest.approx(1.0 / 1.2)
    for bad in (-0.1, C_MAX + 1e-6, 0.3, math.nan):
        with pytest.raises(OutOfRange):
            LinearDensityInstance(bad)


def test_zero_endpoint_published_root():
    sol = solve_linear(0.0)
    assert sol.p_a1 == pytest.approx(SQRT06, abs=1e-15)
    assert sol.a1 == 0.0
    assert sol.p == pytest.approx(1.0959744517533514, abs=1e-12)
    assert sol.p == pytest.approx(1.09597, abs=1e-4)
    assert sol.P1 == pytest.approx(sol.p - SQRT06, abs=1e-15)
    assert sol.t_a1 == pytest.approx(SQRT06, abs=1e-15)


def test_zero_endpoint_interior_root_balances_bundle_region():
    sol = solve_linear(0.0, root="interior")
    assert sol.P1 == pytest.approx(0.31626090103515964, abs=1e-12)
    assert sol.p == pytest.approx(1.090857570276643, abs=1e-12)
    # the interior reading is the one that zeroes the bundle-region balance
    sh = GenShuffleAlpha(0.0, sol.p_a1, 0.0, sol.P1)
    assert abs(sh.mass()) < 1e-12


def test_zero_endpoint_root_selector_validation():
    with pytest.raises(ValueError):
        solve_linear(0.0, root="bogus")


def test_published_digits_at_c_tenth():
    sol = solve_linear(0.1)
    assert sol.p_a1 == pytest.approx(0.796151, abs=1e-4)
    assert sol.a1 == pytest.approx(0.231984, abs=1e-4)
    assert sol.P1 == pytest.approx(0.364655, abs=1e-4)
    assert sol.p == pytest.approx(1.19941, abs=1e-4)
    # tighter frozen values from the converged system
    assert sol.p_a1 == pytest.approx(0.7961513660350535, abs=1e-10)
    assert sol.a1 == pytest.approx(0.23198355767023895, abs=1e-10)
    assert sol.P1 == pytest.approx(0.3646554440454827, abs=1e-10)
    assert sol.P2 == pytest.approx(0.8347556545685856, abs=1e-10)
    assert sol.p == pytest.approx(1.1994110986140682, abs=1e-10)
    assert sol.t_a1 == pytest.approx(0.9193497218, abs=1e-9)


def test_solution_internal_consistency():
    for c in (0.02, 0.1, 0.2, 0.24):
        sol = solve_linear(c)
        assert sol.P2 == pytest.approx(c + sol.p_a1 - sol.a1 * (sol.P1 - c), abs=1e-12)
        assert sol.p == pytest.approx(sol.P1 + sol.P2, abs=1e-12)
        assert sol.t_bundle == sol.p
        assert c < sol.P1 < sol.P2 <= c + 1.0
        assert 0.0 < sol.a1 <= 1.0 + 1e-5


def test_balance_equations_vanish_at_solutions():
    for c in (0.05, 0.1, 0.2):
        sol = solve_linear(c)
        sh = GenShuffleAlpha(c, sol.p_a1, sol.a1, sol.P1)
        assert abs(sh.mass()) < 1e-12, f"boundary mass at c={c}"
        assert abs(sh.first_moment()) < 1e-12, f"boundary moment at c={c}"
        assert sh.point_mass() > 0.0
        assert sh.density(c + 1e-9) < 0.0, "density starts negative next to the atom"
        assert sh.density(sol.P1) > 0.0, "density ends positive at the kink"


def test_gen_shuffle_validation():
    with pytest.raises(ValueError):
        GenShuffleAlpha(-0.1, 0.7, 0.1, 0.4)
    with pytest.raises(ValueError):
        GenShuffleAlpha(0.1, 0.7, 0.1, 0.05)  # P1 <= c
    with pytest.raises(ValueError):
        GenShuffleAlpha(0.1, 0.7, -0.2, 0.4)
    with pytest.raises(ValueError):
        GenShuffleAlpha(0.1, 0.0, 0.2, 0.4)


def test_validity_edge_is_unit_slope():
    sol = solve_linear(C_MAX)
    assert sol.a1 == pytest.approx(1.0, abs=1e-4), "the range endpoint is where a1 reaches 1"
    assert sol.p == pytest.approx(1.3573866672473334, abs=1e-8)
    menu = sol.menu()
    assert menu[1].q1 <= 1.0, "menu allocations are clipped into [0, 1]"


def test_out_of_range_and_menu_shape():
    with pytest.raises(OutOfRange):
        solve_linear(0.3)
    with pytest.raises(OutOfRange):
        solve_linear(-1e-9)
    sol = solve_linear(0.1)
    menu = sol.menu()
    assert len(menu) == 4
    assert menu[0].is_null and menu[3].is_bundle
    assert menu[1].t == menu[2].t == pytest.approx(sol.t_a1)
    assert sol.to_dict()["P1"] == sol.P1


def test_continuity_at_the_left_endpoint():
    eps_sol = solve_linear(1e-4)
    base = solve_linear(0.0)
    assert abs(eps_sol.p_a1 - base.p_a1) < 1e-2
    assert abs(eps_sol.a1 - base.a1) < 1e-2
    assert abs(eps_sol.P1 - base.P1) < 1e-2
    assert abs(eps_sol.p - base.p) < 1e-2


def test_frozen_revenues():
    assert linear_revenue(solve_linear(0.0), 0.0) == pytest.approx(0.8473462806733976, abs=1e-12)
    assert linear_revenue(solve_linear(0.0, root="interior"), 0.0) == pytest.approx(0.8473798817022714, abs=1e-12)
    assert linear_revenue(solve_linear(0.1), 0.1) == pytest.approx(0.942295210071868, abs=1e-12)


def test_revenue_grid_cross_check():
    for c in (0.0, 0.1):
        sol = solve_linear(c, root="interior") if c == 0.0 else solve_linear(c)
        exact = linear_revenue(sol, c)
        grid = _grid_revenue(sol, c, 2000)
        assert abs(grid - exact) < 5e-4, f"c={c}: grid {grid} vs exact {exact}"


def test_interior_root_is_a_stationary_price():
    # nudging the bundle price either way lowers revenue at the interior root
    sol = solve_linear(0.0, root="interior")
    base = linear_revenue(sol, 0.0)
    for delta in (1e-3, -1e-3):
        rev = linear_revenue((sol.p_a1, sol.a1, sol.P1, sol.p + delta), 0.0)
        assert rev < base, f"price shift {delta:+} should not gain (got {rev} vs {base})"


def test_positive_c_prices_are_stationary():
    sol = solve_linear(0.1)
    base = linear_revenue(sol, 0.1)
    for delta in (1e-3, -1e-3):
        rev = linear_revenue((sol.p_a1, sol.a1, sol.P1, sol.p + delta), 0.1)
        assert rev < base, f"bundle price shift {delta:+} gained revenue"


def test_revenue_accepts_tuple_params():
    sol = solve_linear(0.1)
    as_tuple = linear_revenue((sol.p_a1, sol.a1, sol.P1, sol.p), 0.1)
    assert as_tuple == pytest.approx(linear_revenue(sol, 0.1), rel=1e-12)


def test_revenue_increases_with_c():
    revs = [linear_revenue(solve_linear(c), c) for c in (0.0, 0.1, 0.2)]
    assert revs[0] < revs[1] < revs[2], "richer supports must earn more"
