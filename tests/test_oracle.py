"""Grid-search oracle, measure certificates, and stationarity checks."""

from dataclasses import replace

import numpy as np
import pytest

from optmech.geometry import best_response_regions
from optmech.measures import MuBar
from optmech.mechanism import expected_revenue
from optmech.oracle import (
    _family_revenue,
    brute_force_menu_search,
    certificate_check,
    local_max_check,
    price_gradient,
)
from optmech.solver import solve
from optmech.types import NULL_ITEM, MenuItem, Rectangle

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def _assert_family_matches(rect, a1, a2, t1, t2, tb):
    batched = _family_revenue(rect, a1, a2, t1, t2, tb)
    for k in range(a1.size):
        menu = (
            NULL_ITEM,
            MenuItem(float(a1[k]), 1.0, float(t1[k])),
            MenuItem(1.0, float(a2[k]), float(t2[k])),
            MenuItem(1.0, 1.0, float(tb[k])),
        )
        exact = expected_revenue(menu, rect)
        assert batched[k] == pytest.approx(exact, abs=1e-10), f"{rect} menu {menu}: {batched[k]} vs {exact}"


def test_family_revenue_matches_exact_polygon_revenue():
    rect = Rectangle(0.3, 0.2, 1.2, 0.8)
    rng = np.random.default_rng(7)
    n = 64
    t_hi = rect.z1_max + rect.z2_max
    _assert_family_matches(
        rect,
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, t_hi, n),
        rng.uniform(0.0, t_hi, n),
        rng.uniform(0.0, t_hi, n),
    )
    # Menus on the search's own coarse grid: allocations of 0 or 1, equal
    # prices and coincident constraints (a1 = 1 with t1 = tb, or a1 = 0
    # with tb - t1 = c1) all occur there, and random menus miss them.
    for grid_rect in (rect, Rectangle(0.0, 1.999998, 2.3220394, 1.0)):
        t_hi = grid_rect.z1_max + grid_rect.z2_max
        alloc = np.linspace(0.0, 1.0, 8)
        price = np.linspace(0.0, t_hi, 8)
        _assert_family_matches(
            grid_rect,
            rng.choice(alloc, 200),
            rng.choice(alloc, 200),
            rng.choice(price, 200),
            rng.choice(price, 200),
            rng.choice(price, 200),
        )


def test_brute_force_tracks_the_solver():
    mech = solve(UNIT)
    menu, rev = brute_force_menu_search(UNIT, coarse=9, refine_rounds=4)
    gap = mech.revenue - rev
    assert abs(gap) <= 5e-3 * mech.revenue, f"search best {rev} vs solver {mech.revenue}"
    assert len(menu) <= 4
    assert rev == pytest.approx(expected_revenue(menu, UNIT), rel=1e-12)


@pytest.mark.parametrize(
    "rect, revenue, menu",
    [
        (
            Rectangle(0.05, 0.05, 1.0, 1.0),
            0.6122314496701805,
            [
                (0.1607142857142857, 1.0, 0.7687499999999999),
                (1.0, 0.1607142857142857, 0.7687499999999999),
                (1.0, 1.0, 0.8999999999999999),
            ],
        ),
        (
            Rectangle(0.05068, 2.512, 1.267, 1.0),
            2.848134766683273,
            [(0.13392857142857142, 1.0, 2.587328571428571), (1.0, 1.0, 3.147916428571428)],
        ),
        (
            Rectangle(0.0, 1.999998, 2.3220394, 1.0),
            2.5756298342869384,
            [(0.12499999999999999, 1.0, 2.1383185982142856), (1.0, 1.0, 3.136200610714285)],
        ),
    ],
)
def test_brute_force_frozen_outputs(rect, revenue, menu):
    # A scoring rule that breaks ties differently moves the refinement
    # window, and with it the menu the search ends on.
    found, rev = brute_force_menu_search(rect, coarse=8, refine_rounds=2)
    assert rev == pytest.approx(revenue, rel=1e-12)
    assert found[0] == NULL_ITEM
    assert len(found) == len(menu) + 1
    for item, (q1, q2, t) in zip(found[1:], menu):
        assert (item.q1, item.q2, item.t) == pytest.approx((q1, q2, t), rel=1e-12, abs=1e-15)


def test_brute_force_is_deterministic():
    first = brute_force_menu_search(UNIT, coarse=8, refine_rounds=1)
    second = brute_force_menu_search(UNIT, coarse=8, refine_rounds=1)
    assert first == second


def test_brute_force_validates_arguments():
    with pytest.raises(ValueError):
        brute_force_menu_search(UNIT, coarse=7)
    with pytest.raises(ValueError):
        brute_force_menu_search(UNIT, refine_rounds=-1)


@pytest.mark.parametrize(
    "rect",
    [
        Rectangle(0.05, 0.05, 1.0, 1.0),
        Rectangle(2.0, 2.0, 1.0, 1.0),
        Rectangle(0.2, 2.8, 1.0, 1.0),
        Rectangle(0.5, 8.0, 1.0, 1.0),
        Rectangle(0.0, 0.3, 1.0, 1.0),
        Rectangle(4.0, 4.0, 12.0, 3.0),
    ],
)
def test_certificate_passes_on_solved_instances(rect):
    mech = solve(rect)
    report = certificate_check(mech, rect)
    assert report.passed, f"{rect}: failures {report.failures}"
    assert abs(report.mu_D) <= 1e-12
    assert abs(report.mu_W) <= 1e-9 * rect.area
    assert report.shuffle_mass <= 1e-10
    assert report.shuffle_moment <= 1e-10


def test_certificate_rejects_perturbed_price():
    mech = solve(UNIT)
    bundle_idx = next(i for i, it in enumerate(mech.menu) if it.is_bundle)
    item = mech.menu[bundle_idx]
    bad_menu = mech.menu[:bundle_idx] + (replace(item, t=item.t + 0.01),) + mech.menu[bundle_idx + 1 :]
    bad = replace(mech, menu=bad_menu)
    report = certificate_check(bad, UNIT)
    assert not report.passed
    assert "foc_gradient" in report.failures
    assert "mu_W" in report.failures


def test_certificate_oracle_gap_logic():
    mech = solve(UNIT)
    shortfall = certificate_check(mech, UNIT, oracle_gap=0.1)
    assert "oracle_gap_shortfall" in shortfall.failures
    beaten = certificate_check(mech, UNIT, oracle_gap=-0.1)
    assert "oracle_gap_beaten" in beaten.failures
    tiny = certificate_check(mech, UNIT, oracle_gap=1e-6)
    assert tiny.passed
    assert tiny.oracle_gap == 1e-6


def test_price_gradient_equals_negative_region_measure():
    # dR/dt_bundle = -mu(W) for any bundle price, not only at the optimum
    rect = Rectangle(0.05, 0.05, 1.0, 1.0)
    mech = solve(rect)
    bundle_idx = next(i for i, it in enumerate(mech.menu) if it.is_bundle)
    item = mech.menu[bundle_idx]
    menu = mech.menu[:bundle_idx] + (replace(item, t=item.t + 0.01),) + mech.menu[bundle_idx + 1 :]
    fd = price_gradient(menu, rect, bundle_idx)
    regions = best_response_regions(rect, menu)
    w_mass = MuBar(rect).mass(regions[bundle_idx])
    assert fd == pytest.approx(-w_mass, abs=5e-6), f"FD {fd} vs -measure {-w_mass}"


def test_local_max_check_accepts_optimum_rejects_interior_slope():
    mech = solve(UNIT)
    assert local_max_check(mech.menu, UNIT, 1e-3)
    underpriced = (NULL_ITEM, MenuItem(1.0, 1.0, 0.5))
    assert not local_max_check(underpriced, UNIT, 1e-3), "revenue rises with the price at t=0.5"
    with pytest.raises(ValueError):
        local_max_check(mech.menu, UNIT, 0.5)
