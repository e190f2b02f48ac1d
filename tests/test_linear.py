"""Linear-density family: balance equations, solved branches, revenue."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import optmech.linear
from helpers import (
    GenShuffleAlpha,
    clipped_linear_revenue,
    looped_boundary_branch,
    looped_mu_w,
    zero_endpoint_interior_root,
)
from optmech.linear import (
    _KINK_OFFSET,
    C_MAX,
    LinearSolution,
    NoConvergence,
    OutOfRange,
    _balance_at,
    _boundary_branch,
    _xy_moment,
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


def test_instance_validation():
    sol = solve_linear(0.1)
    assert sol.c == 0.1 and linear_revenue(sol, 0.1) > 0.0
    for bad in (-0.1, C_MAX + 1e-6, 0.3, math.nan, math.inf):
        with pytest.raises(OutOfRange):
            solve_linear(bad)
        with pytest.raises(OutOfRange):
            linear_revenue(sol, bad)


def test_zero_endpoint_published_root():
    sol = solve_linear(0.0)
    assert sol.p_a1 == pytest.approx(SQRT06, abs=1e-15)
    assert sol.a1 == 0.0
    assert sol.p == pytest.approx(1.0959744517533514, abs=1e-12)
    assert sol.p == pytest.approx(1.09597, abs=1e-4)
    assert sol.P1 == pytest.approx(sol.p - SQRT06, abs=1e-15)
    assert sol.t_a1 == pytest.approx(SQRT06, abs=1e-15)


def test_zero_endpoint_interior_root_balances_bundle_region():
    sol = zero_endpoint_interior_root()
    assert sol.P1 == pytest.approx(0.31626090103515964, abs=1e-12)
    assert sol.p == pytest.approx(1.090857570276643, abs=1e-12)
    # the interior reading is the one that zeroes the bundle-region balance
    sh = GenShuffleAlpha(0.0, sol.p_a1, 0.0, sol.P1)
    assert abs(sh.mass()) < 1e-12


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
        assert c < sol.P1 < sol.P2 <= c + 1.0
        assert 0.0 < sol.a1 <= 1.0 + 1e-5


@pytest.mark.parametrize(
    "c, p_a1, a1, P1, p, revenue",
    [
        (0.15, 0.8166390739511264, 0.4407056940950538, 0.39341707386445907, 1.2527808573235621, 0.9970806241385674),
        (0.2, 0.837224593253971, 0.6936006210211794, 0.4224661400086805, 1.305388080396446, 1.0566207472208444),
        (0.24, 0.8532010481214279, 0.9331245340374449, 0.44553824404198333, 1.3469465139648609, 1.1076461545221126),
    ],
    ids=["c=0.15", "c=0.2", "c=0.24"],
)
def test_frozen_solutions_above_a_tenth(c, p_a1, a1, P1, p, revenue):
    sol = solve_linear(c)
    assert sol.p_a1 == pytest.approx(p_a1, abs=1e-12)
    assert sol.a1 == pytest.approx(a1, abs=1e-12)
    assert sol.P1 == pytest.approx(P1, abs=1e-12)
    assert sol.p == pytest.approx(p, abs=1e-12)
    assert linear_revenue(sol, c) == pytest.approx(revenue, abs=1e-12)


def test_balance_equations_vanish_at_solutions():
    for c in (1e-6, 1e-4, 0.05, 0.1, 0.15, 0.2, 0.24, C_MAX):
        sol = solve_linear(c)
        sh = GenShuffleAlpha(c, sol.p_a1, sol.a1, sol.P1)
        assert abs(sh.mass()) < 1e-12, f"boundary mass at c={c}"
        assert abs(sh.first_moment()) < 1e-12, f"boundary moment at c={c}"
        assert abs(looped_mu_w(c, sol.p_a1, sol.a1, sol.P1)) < 1e-12, f"bundle-region mass at c={c}"
        assert sh.point_mass() > 0.0
        assert sh.density(c + 1e-9) < 0.0, "density starts negative next to the atom"
        assert sh.density(sol.P1) > 0.0, "density ends positive at the kink"


def test_solve_stays_within_its_balance_budget(monkeypatch):
    # two bracket ends and a superlinear search; bisection to the rounding
    # floor made 51-52
    calls = []

    def counted(c):
        balance = _balance_at(c)

        def kernel(kink):
            calls.append(kink)
            return balance(kink)

        return kernel

    monkeypatch.setattr(optmech.linear, "_balance_at", counted)
    for k in range(1, 62):
        calls.clear()
        solve_linear(k * C_MAX / 61)
        assert 0 < len(calls) <= 16, (k, len(calls))


def _hex(values) -> tuple[str, ...]:
    return tuple(map(float.hex, values))


def test_straight_line_kernel_matches_the_looped_reference(monkeypatch):
    # the same operations in the same order: equal to the bit, not close
    rng = random.Random(2301)
    for _ in range(5000):
        c = rng.choice((0.0, 1e-12, 1e-9, C_MAX - rng.uniform(0.0, C_MAX)))
        P1 = c + rng.uniform(1e-6, 1.0)
        looped_branch = looped_boundary_branch(c, P1)
        assert _hex(_boundary_branch(c, P1)) == _hex(looped_branch), (c, P1)
        assert _hex([_balance_at(c)(P1)]) == _hex([looped_mu_w(c, *looped_branch, P1)]), (c, P1)
    cs = [C_MAX * (i + 1) / 400 for i in range(400)]
    solved = [solve_linear(c).to_dict() for c in cs]
    solved += [solve_linear(0.0).to_dict(), zero_endpoint_interior_root().to_dict()]
    monkeypatch.setattr(optmech.linear, "_boundary_branch", looped_boundary_branch)
    monkeypatch.setattr(
        optmech.linear,
        "_balance_at",
        lambda c: lambda kink: looped_mu_w(c, *looped_boundary_branch(c, kink), kink),
    )
    looped = [solve_linear(c).to_dict() for c in cs]
    looped += [solve_linear(0.0).to_dict(), zero_endpoint_interior_root().to_dict()]
    for got, want in zip(solved, looped, strict=True):
        assert _hex(got.values()) == _hex(want.values()), got["c"]


def test_kink_bracket_holds_one_sign_change_from_negative_to_positive():
    # the single Brent search over [c + _KINK_OFFSET, c + 1] relies on it:
    # 200 kinks per c, spaced linearly and log-spaced near c
    for c in [0.0, 1e-12, 1e-9, 1e-6, 1e-3] + [C_MAX * (i + 1) / 200 for i in range(200)]:
        kinks = np.unique(np.concatenate([
            np.linspace(c + _KINK_OFFSET, c + 1.0, 150),
            c + np.geomspace(_KINK_OFFSET, 0.1, 50),
        ]))
        balance = _balance_at(c)
        signs = np.sign([balance(k) for k in map(float, kinks)])
        assert signs[0] < 0.0 and signs[-1] > 0.0, c
        assert np.count_nonzero(np.diff(signs)) == 1, c


def test_no_sign_change_names_the_bracket_and_end_balances(monkeypatch):
    monkeypatch.setattr(optmech.linear, "_balance_at", lambda c: lambda kink: 0.5)
    with pytest.raises(NoConvergence) as info:
        solve_linear(0.1)
    message = str(info.value)
    assert message.startswith("no kink root at c=0.1: no sign change on [")
    assert f"[{0.1 + 1e-6!r}, {1.1!r}]: f = 0.5, 0.5" in message


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
    assert sol.p == pytest.approx(1.357386667247333, abs=1e-12)
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
    # the six fields in declaration order, as the dataclass lists them
    assert list(sol.to_dict().items()) == list(dataclasses.asdict(sol).items())


def test_continuity_at_the_left_endpoint():
    eps_sol = solve_linear(1e-4)
    base = solve_linear(0.0)
    assert abs(eps_sol.p_a1 - base.p_a1) < 1e-2
    assert abs(eps_sol.a1 - base.a1) < 1e-2
    assert abs(eps_sol.P1 - base.P1) < 1e-2
    assert abs(eps_sol.p - base.p) < 1e-2


def test_interior_reading_is_the_limit_of_the_default_path():
    # as c -> 0+ solve_linear tends to the interior reading at c = 0, which
    # earns 3.4e-5 more than the published reading solve_linear keeps there
    interior = zero_endpoint_interior_root()
    revenue = linear_revenue(interior, 0.0)
    for c in (1e-12, 1e-13, 1e-14):
        sol = solve_linear(c)
        assert abs(linear_revenue(sol, c) - revenue) < 1e-11, f"c={c}"
        for field in ("p_a1", "a1", "P1", "P2", "p"):
            assert abs(getattr(sol, field) - getattr(interior, field)) < 1e-11, f"c={c}: {field}"
    assert revenue - linear_revenue(solve_linear(0.0), 0.0) > 3e-5


def test_frozen_revenues():
    assert linear_revenue(solve_linear(0.0), 0.0) == pytest.approx(0.8473462806733976, abs=1e-12)
    assert linear_revenue(zero_endpoint_interior_root(), 0.0) == pytest.approx(0.8473798817022714, abs=1e-12)
    assert linear_revenue(solve_linear(0.1), 0.1) == pytest.approx(0.942295210071868, abs=1e-12)


def test_revenue_grid_cross_check():
    for c in (0.0, 0.1):
        sol = zero_endpoint_interior_root() if c == 0.0 else solve_linear(c)
        exact = linear_revenue(sol, c)
        grid = _grid_revenue(sol, c, 2000)
        assert abs(grid - exact) < 5e-4, f"c={c}: grid {grid} vs exact {exact}"


def test_interior_root_is_a_stationary_price():
    # nudging the bundle price either way lowers revenue at the interior root
    sol = zero_endpoint_interior_root()
    base = linear_revenue(sol, 0.0)
    for delta in (1e-3, -1e-3):
        rev = linear_revenue(dataclasses.replace(sol, p=sol.p + delta), 0.0)
        assert rev < base, f"price shift {delta:+} should not gain (got {rev} vs {base})"


def _price_moves(sol: LinearSolution):
    """The menu with p, p_a1 or a1 alone moved by +-1e-3 and +-1e-5."""
    for field in ("p", "p_a1", "a1"):
        for delta in (1e-3, -1e-3, 1e-5, -1e-5):
            yield field, delta, dataclasses.replace(sol, **{field: getattr(sol, field) + delta})


def test_positive_c_prices_are_stationary():
    # the revenue must read the moved prices, not the solved kink P1/P2
    for c in (0.05, 0.1, 0.15, 0.2, 0.24):
        sol = solve_linear(c)
        base = linear_revenue(sol, c)
        for field, delta, moved in _price_moves(sol):
            rev = linear_revenue(moved, c)
            assert rev < base, f"{field} shift {delta:+} gained revenue at c={c} ({rev} vs {base})"


def test_closed_form_revenue_matches_clipped_polygons():
    # 401 points across [0, C_MAX]; the last is C_MAX, where menu() clips
    # a1 to 1 and the menu is pure bundling
    sols = [solve_linear(C_MAX * i / 400) for i in range(401)]
    sols.append(zero_endpoint_interior_root())
    for c in (0.05, 0.1, 0.2):
        sols.extend(moved for _, _, moved in _price_moves(solve_linear(c)))
    assert sols[400].c == C_MAX and sols[400].menu()[1].q1 == 1.0
    for sol in sols:
        ref = clipped_linear_revenue(sol, sol.c)
        assert linear_revenue(sol, sol.c) == pytest.approx(ref, rel=1e-13, abs=0.0), sol


def _exact_xy_moment(vs) -> Fraction:
    """Integral of z1*z2 over the CCW polygon vs in rational arithmetic,
    summed over a fan of triangles T from the first vertex, each by
    |T| / 12 (sum x_k y_k + sum x_k * sum y_k)."""
    (x0, y0), *rest = [(Fraction(x), Fraction(y)) for x, y in vs]
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(rest, rest[1:]):
        area = ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2
        total += area / 12 * (x0 * y0 + x1 * y1 + x2 * y2 + (x0 + x1 + x2) * (y0 + y1 + y2))
    return total


def test_xy_moment_matches_the_exact_integral_on_the_solved_layouts():
    # the quadrilateral and pentagon that linear_revenue sells on at 1,500
    # values of c in [0, C_MAX), and the unsold triangle at C_MAX, where
    # the clipped slope a = 1 makes the menu pure bundling
    polygons = []
    for i in range(1500):
        sol = solve_linear(C_MAX * i / 1500)
        c, P1, P2, top = sol.c, sol.P1, sol.P2, sol.c + 1.0
        polygons.append(((c, c + sol.p_a1), (P1, P2), (P1, top), (c, top)))
        polygons.append(((P1, P2), (P2, P1), (top, P1), (top, top), (P1, top)))
    sol = solve_linear(C_MAX)
    c, m = sol.c, min(sol.t_a1, sol.p)
    polygons.append(((c, c), (m - c, c), (c, m - c)))
    for vs in polygons:
        exact = _exact_xy_moment(vs)
        assert exact > 0
        assert abs(Fraction(_xy_moment(vs)) - exact) <= Fraction(2e-15) * exact, vs


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
def test_revenue_rejects_a_menu_outside_the_solved_layout(p):
    # the kink falls below the diagonal at p = 1.5 and past c + 1 beyond;
    # the closed form read 0.8313, 0.2763 and 0.1323 there, against 0.8313,
    # 0.6669 and 0.6669 from the clipped polygons
    sol = dataclasses.replace(solve_linear(0.1), p=p)
    with pytest.raises(ValueError, match="outside the solved layout"):
        linear_revenue(sol, 0.1)


@pytest.mark.parametrize("c", [0.1, C_MAX], ids=["c=0.1", "c=C_MAX"])
@pytest.mark.parametrize("field", ["p_a1", "p"])
@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_revenue_refuses_a_price_that_is_nan_negative_or_infinite(c, field, bad):
    # p_a1 = nan, -1 or inf makes t_a1 nan, negative or inf; at C_MAX the
    # clipped slope a = 1 prices the menu at min(t_a1, p), which a NaN
    # price would slip through
    sol = solve_linear(c)
    assert (min(max(sol.a1, 0.0), 1.0) == 1.0) is (c == C_MAX)
    moved = dataclasses.replace(sol, **{field: bad})
    assert not 0.0 <= (moved.t_a1 if field == "p_a1" else moved.p) < math.inf
    with pytest.raises(ValueError):
        linear_revenue(moved, c)


def test_revenue_increases_with_c():
    revs = [linear_revenue(solve_linear(c), c) for c in (0.0, 0.1, 0.2)]
    assert revs[0] < revs[1] < revs[2], "richer supports must earn more"
