"""Tests of the independent reference; run with ``python3 -m pytest bench``."""

import math

import pytest

import reference as ref


def test_bundling_on_the_unit_square():
    u = ref.Uniform(0.0, 1.0)
    price, revenue = ref.bundle_revenue(u, u)
    # s (1 - s^2/2) peaks at s = sqrt(2/3)
    assert price == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)
    assert revenue == pytest.approx(0.5443, abs=5e-5)
    assert revenue == pytest.approx(2.0 / 3.0 * math.sqrt(2.0 / 3.0), rel=1e-12)


def test_manelli_vincent_optimum_on_the_unit_square():
    u = ref.Uniform(0.0, 1.0)
    menu = [(0.0, 0.0, 0.0), (1.0, 0.0, 2.0 / 3.0), (0.0, 1.0, 2.0 / 3.0), (1.0, 1.0, (4.0 - math.sqrt(2.0)) / 3.0)]
    revenue, err = ref.menu_revenue(menu, u, u)
    assert err < 1e-3
    assert abs(revenue - 0.5492) <= err + 5e-5


def test_lopsided_separate_sale_closed_form():
    c1, c2, b1, b2 = 0.5, 8.0, 1.0, 1.0
    revenue = ref.separate_revenue(ref.Uniform(c1, b1), ref.Uniform(c2, b2))
    assert revenue == pytest.approx(c2 + (c1 + b1) ** 2 / (4.0 * b1), rel=1e-15)
    assert revenue == 8.5625


def test_upper_bound_is_the_mean_total_value():
    assert ref.upper_bound(ref.Uniform(1.0, 2.0), ref.Uniform(0.0, 4.0)) == 4.0
    lin = ref.Linear(0.0)
    assert ref.upper_bound(lin, lin) == pytest.approx(4.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("m1, m2", [
    (ref.Uniform(0.3, 1.7), ref.Uniform(2.0, 0.4)),
    (ref.Linear(0.0), ref.Linear(0.0)),
    (ref.Linear(0.2), ref.Linear(0.2)),
])
def test_grid_revenue_agrees_with_the_bundle_integral(m1, m2):
    price, revenue = ref.bundle_revenue(m1, m2)
    grid, err = ref.menu_revenue([(0.0, 0.0, 0.0), (1.0, 1.0, price)], m1, m2)
    assert abs(grid - revenue) <= err + 1e-12


@pytest.mark.parametrize("m", [ref.Uniform(0.5, 2.0), ref.Linear(0.1)])
def test_single_good_menu_earns_its_price_times_the_sale_probability(m):
    other = ref.Uniform(0.0, 1.0)
    price = m.best_price()
    grid, err = ref.menu_revenue([(1.0, 0.0, price)], m, other)
    assert abs(grid - price * m.sf(price)) <= err + 1e-12
    assert err < 1e-3


def test_marginals_are_normalised():
    for m in (ref.Uniform(0.2, 3.0), ref.Linear(0.25)):
        assert float(m.cdf(m.lo)) == 0.0
        assert float(m.cdf(m.hi)) == pytest.approx(1.0, rel=1e-15)
        assert m.sf(m.lo) == pytest.approx(1.0, rel=1e-15)
        assert m.sf(m.hi) == 0.0
