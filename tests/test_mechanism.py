"""Menus from structures, revenue evaluation, and payment monotonicity."""

from fractions import Fraction

import pytest

import optmech.geometry
import optmech.mechanism
from helpers import bundle_item, primal_objective, revenue_monotonicity_check, utility
from optmech.mechanism import IncompleteParams, build_mechanism, expected_revenue
from optmech.solver import solve
from optmech.types import NULL_ITEM, MenuItem, Rectangle, SolveParams, StructureKind
from test_mirror import INSTANCES

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def test_kind_a_menu_prices_from_continuity():
    rect = Rectangle(0.1, 0.2, 1.0, 1.0)
    params = SolveParams(p_a1=0.7, p_a2=0.65, a1=0.2, a2=0.3, p=0.8, P=(0.3, 0.9), Q=(0.75, 0.4))
    menu = build_mechanism(StructureKind.A, params, rect).menu
    assert menu[0] is NULL_ITEM
    assert menu[1] == MenuItem(0.2, 1.0, 0.2 + 0.7 + 0.2 * 0.1)
    assert menu[2] == MenuItem(1.0, 0.3, 0.1 + 0.65 + 0.3 * 0.2)
    assert menu[3] == MenuItem(1.0, 1.0, 0.1 + 0.2 + 0.8)


def test_kind_c_menu_is_null_plus_bundle():
    menu = build_mechanism(StructureKind.C, SolveParams(p=0.5), Rectangle(2.0, 2.0, 1.0, 1.0)).menu
    assert menu == (NULL_ITEM, MenuItem(1.0, 1.0, 4.5))


def test_kind_d_bundle_price_continuity_across_vertical_cut():
    rect = Rectangle(0.2, 2.8, 1.0, 1.0)
    params = SolveParams(p_a1=0.1, a1=0.3, m1=0.1 / 0.3, p=0.4)
    menu = build_mechanism(StructureKind.D, params, rect).menu
    t_a1 = 2.8 + 0.1 + 0.3 * 0.2
    assert menu[1].t == pytest.approx(t_a1)
    assert menu[2].t == pytest.approx(t_a1 + 0.7 * 0.6), "bundle upgrade priced at (1-a1)(c1+p)"


def test_kind_e_and_h_menus_are_deterministic():
    menu_e = build_mechanism(StructureKind.E, None, Rectangle(0.5, 8.0, 1.0, 1.0)).menu
    assert menu_e == (MenuItem(0.0, 1.0, 8.0), MenuItem(1.0, 1.0, 8.75))
    mech_h = solve(Rectangle(0.5, 8.0, 1.0, 1.0)).swapped()
    assert mech_h.kind is StructureKind.H
    assert mech_h.menu == (MenuItem(1.0, 0.0, 8.0), MenuItem(1.0, 1.0, 8.75))


def test_missing_parameters_raise():
    with pytest.raises(IncompleteParams):
        build_mechanism(StructureKind.C, SolveParams(), UNIT)
    with pytest.raises(IncompleteParams):
        build_mechanism(StructureKind.A, None, UNIT)
    with pytest.raises(IncompleteParams):
        build_mechanism(StructureKind.B, SolveParams(p_a1=0.7, a1=0.1, m1=7.0), UNIT)


def test_utility_picks_best_item_and_breaks_ties_upward():
    menu = (NULL_ITEM, MenuItem(0.0, 1.0, 0.5), MenuItem(1.0, 1.0, 1.0))
    u, item = utility(menu, (0.5, 0.5))
    assert u == pytest.approx(0.0)
    assert item.t == 1.0, "exact ties go to the pricier item (closed-region convention)"
    u2, item2 = utility(menu, (0.2, 0.9))
    assert item2 == menu[1] and u2 == pytest.approx(0.4)
    u3, item3 = utility(menu, (0.1, 0.1))
    assert item3 is NULL_ITEM and u3 == 0.0


def test_expected_revenue_pure_bundle_closed_form():
    for t in (0.5, 0.8, 1.2):
        menu = (NULL_ITEM, MenuItem(1.0, 1.0, t))
        sell_prob = 1.0 - 0.5 * t * t if t <= 1.0 else 0.5 * (2.0 - t) ** 2
        assert expected_revenue(menu, UNIT) == pytest.approx(t * sell_prob, rel=1e-12), f"t={t}"


def test_expected_revenue_scales_with_support_area():
    rect = Rectangle(0.0, 0.0, 2.0, 2.0)
    menu = (NULL_ITEM, MenuItem(1.0, 1.0, 1.6))
    assert expected_revenue(menu, rect) == pytest.approx(2.0 * expected_revenue((NULL_ITEM, MenuItem(1.0, 1.0, 0.8)), UNIT), rel=1e-12)


def test_primal_objective_matches_expected_revenue():
    rect = Rectangle(0.3, 0.1, 1.2, 0.9)
    menus = [
        (NULL_ITEM, MenuItem(1.0, 1.0, 1.1)),
        (NULL_ITEM, MenuItem(0.4, 1.0, 0.9), MenuItem(1.0, 1.0, 1.4)),
        (NULL_ITEM, MenuItem(0.2, 0.8, 0.6), MenuItem(1.0, 0.3, 0.8), MenuItem(1.0, 1.0, 1.3)),
    ]
    for menu in menus:
        lhs = primal_objective(menu, rect)
        rhs = expected_revenue(menu, rect)
        assert lhs == pytest.approx(rhs, abs=1e-10), f"duality identity broke for {menu}"


def test_revenue_monotonicity_detects_violation():
    good = (NULL_ITEM, MenuItem(0.0, 1.0, 2 / 3), MenuItem(1.0, 0.0, 2 / 3), MenuItem(1.0, 1.0, 0.862))
    assert revenue_monotonicity_check(good, UNIT, 21)
    bad = (NULL_ITEM, MenuItem(1.0, 0.0, 0.6), MenuItem(0.0, 1.0, 0.1), MenuItem(1.0, 1.0, 1.9))
    assert not revenue_monotonicity_check(bad, UNIT, 21), "payment drops when z2 rises past the switch line"
    with pytest.raises(ValueError):
        revenue_monotonicity_check(good, UNIT, 1)


def test_build_mechanism_assembles_consistent_record():
    rect = Rectangle(2.0, 2.0, 1.0, 1.0)
    mech = build_mechanism(StructureKind.C, SolveParams(p=0.23), rect)
    assert mech.kind is StructureKind.C
    assert mech.revenue == pytest.approx(expected_revenue(mech.menu, rect), rel=1e-14)
    assert bundle_item(mech).t == pytest.approx(4.23)


def test_the_solve_path_never_clips(monkeypatch):
    def refuse(*args):
        raise AssertionError("the solve path clipped a polygon")

    monkeypatch.setattr(optmech.geometry, "best_response_regions", refuse)
    monkeypatch.setattr(optmech.geometry, "clip", refuse)
    monkeypatch.setattr(optmech.mechanism, "best_response_regions", refuse)
    cases = dict(INSTANCES)
    # a zero corner offset, and the one-lottery structure 1e-12 below c2 = 2 b2
    cases["A0"] = Rectangle(0.0, 0.0, 1.0, 1.0)
    cases["B2"] = Rectangle(0.0, 2.0 * 1.328125 * (1.0 - 1e-12), 1.0, 1.328125)
    kinds = {name: solve(rect).kind for name, rect in cases.items()}
    assert kinds == {**{k: k for k in INSTANCES}, "A0": StructureKind.A, "B2": StructureKind.B}


@pytest.mark.parametrize(
    "kind, rect, p",
    [pytest.param(StructureKind(k), INSTANCES[StructureKind(k)], None, id=k) for k in "ABCDE"]
    # the mirrored kinds, read by their mirror kind's builder
    + [pytest.param(StructureKind(k), INSTANCES[StructureKind(k)], None, id=k) for k in "FGH"]
    + [
        # pure bundling with the diagonal past the shorter side (and on the
        # longer one), and past both: bands no solved support reaches
        pytest.param(StructureKind.C, Rectangle(0.3, 0.2, 0.8, 1.2), 1.0, id="C-past-shorter-side"),
        pytest.param(StructureKind.C, Rectangle(0.3, 0.2, 0.8, 1.2), 1.2, id="C-at-longer-side"),
        pytest.param(StructureKind.C, Rectangle(0.2, 0.3, 1.2, 0.8), 1.7, id="C-past-both-sides"),
    ],
)
def test_closed_form_areas_are_the_best_response_polygons(kind, rect, p):
    mech = solve(rect) if p is None else build_mechanism(kind, SolveParams(p=p), rect)
    rows, _ = optmech.mechanism._rows(kind, vars(mech.params), rect)
    areas = [row[3] for row in rows]
    polygons = optmech.geometry.best_response_regions(rect, mech.menu)
    assert len(areas) == len(mech.menu)
    assert sum(areas) == pytest.approx(rect.area, rel=1e-15)
    for area, poly in zip(areas, polygons):
        # the polygons lie on the unit square u = (z - c)/b
        assert area == pytest.approx(rect.area * poly.area(), rel=1e-12, abs=1e-15 * rect.area)


def _exact_revenue(menu, rect, monkeypatch):
    # the menu's revenue in rational arithmetic: every clip and area is
    # exact once no vertex is merged and the unit square is rational
    monkeypatch.setattr(optmech.geometry, "_DEDUP_TOL", 0)
    square = tuple(tuple(map(Fraction, v)) for v in optmech.geometry.UNIT_SQUARE.vertices)
    monkeypatch.setattr(optmech.geometry, "UNIT_SQUARE", optmech.geometry.Polygon(square))
    exact = Rectangle(*(Fraction(v) for v in (rect.c1, rect.c2, rect.b1, rect.b2)))
    items = tuple(MenuItem(Fraction(i.q1), Fraction(i.q2), Fraction(i.t)) for i in menu)
    regions = optmech.geometry.best_response_regions(exact, items)
    return sum((i.t * _exact_area(r) for i, r in zip(items, regions)), Fraction(0))


def _exact_area(poly):
    # Polygon.area sums into a float; sum the shoelace terms as rationals
    vs = poly.vertices
    return sum((x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])), Fraction(0)) / 2


def test_kind_g_revenue_is_exact_to_rounding(monkeypatch):
    # the good-2 lottery line meets the support's edge 7e-13 short of the
    # cut, and the polygon revenue of the mirrored kind-D menu is 6e-13
    # off the exact revenue there
    rect = Rectangle(0.4637221434032175, 0.0015094564449771076, 0.23332377944819968, 0.47703342290948475)
    mech = solve(rect)
    assert mech.kind is StructureKind.G
    exact = _exact_revenue(mech.menu, rect, monkeypatch)
    assert abs(Fraction(mech.revenue) - exact) <= Fraction(1, 10**15) * exact
