"""Menus from structures, revenue evaluation, and payment monotonicity."""

from fractions import Fraction

import pytest

import optmech.geometry
import optmech.mechanism
import optmech.solver
from helpers import bundle_item, exact_area, exact_regions, primal_objective, revenue_monotonicity_check, utility
from optmech.mechanism import IncompleteParams, build_mechanism, expected_revenue
from optmech.solver import solve
from optmech.types import NULL_ITEM, MenuItem, Rectangle, StructureKind
from test_mirror import INSTANCES

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def test_kind_a_menu_prices_from_continuity():
    rect = Rectangle(0.1, 0.2, 1.0, 1.0)
    fields = dict(p_a1=0.7, p_a2=0.65, a1=0.2, a2=0.3, p=0.8, P=(0.3, 0.9), Q=(0.75, 0.4))
    menu = build_mechanism((StructureKind.A, fields, False), rect).menu
    assert menu[0] is NULL_ITEM
    assert menu[1] == MenuItem(0.2, 1.0, 0.2 + 0.7 + 0.2 * 0.1)
    assert menu[2] == MenuItem(1.0, 0.3, 0.1 + 0.65 + 0.3 * 0.2)
    assert menu[3] == MenuItem(1.0, 1.0, 0.1 + 0.2 + 0.8)


def test_kind_c_menu_is_null_plus_bundle():
    menu = build_mechanism((StructureKind.C, {"p": 0.5}, False), Rectangle(2.0, 2.0, 1.0, 1.0)).menu
    assert menu == (NULL_ITEM, MenuItem(1.0, 1.0, 4.5))


def test_kind_d_bundle_price_continuity_across_vertical_cut():
    rect = Rectangle(0.2, 2.8, 1.0, 1.0)
    fields = dict(p_a1=0.1, a1=0.3, m1=0.1 / 0.3, p=0.4)
    menu = build_mechanism((StructureKind.D, fields, False), rect).menu
    t_a1 = 2.8 + 0.1 + 0.3 * 0.2
    assert menu[1].t == pytest.approx(t_a1)
    assert menu[2].t == pytest.approx(t_a1 + 0.7 * 0.6), "bundle upgrade priced at (1-a1)(c1+p)"


def test_kind_e_and_h_menus_are_deterministic():
    menu_e = build_mechanism((StructureKind.E, {}, False), Rectangle(0.5, 8.0, 1.0, 1.0)).menu
    assert menu_e == (MenuItem(0.0, 1.0, 8.0), MenuItem(1.0, 1.0, 8.75))
    # kind E's builder on the support read with the goods exchanged
    mech_h = build_mechanism((StructureKind.E, {}, True), Rectangle(8.0, 0.5, 1.0, 1.0))
    assert mech_h.kind is StructureKind.H
    assert mech_h.menu == (MenuItem(1.0, 0.0, 8.0), MenuItem(1.0, 1.0, 8.75))


def test_missing_parameters_raise():
    # the message names the kind and the first field its builder misses
    with pytest.raises(IncompleteParams, match="kind C.*'p'"):
        build_mechanism((StructureKind.C, {}, False), UNIT)
    with pytest.raises(IncompleteParams, match="kind A.*'p_a1'"):
        build_mechanism((StructureKind.A, {}, False), UNIT)
    for swap in (False, True):
        with pytest.raises(IncompleteParams, match="kind B.*'p'"):
            build_mechanism((StructureKind.B, dict(p_a1=0.7, a1=0.1, m1=7.0), swap), UNIT)


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
    mech = build_mechanism((StructureKind.C, {"p": 0.23}, False), rect)
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
    # the mirrored kinds, built in the frame they were solved in
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
    structure = optmech.solver._structure(rect)[0] if p is None else (kind, {"p": p}, False)
    mech = build_mechanism(structure, rect)
    assert mech.kind is kind
    # the builder's rows, run on the support in the frame it was solved in
    shape, fields, swap = structure
    frame = rect.swapped() if swap else rect
    rows = optmech.mechanism._BUILDERS[shape](frame.c1, frame.c2, frame.b1, frame.b2, fields)
    areas = [row[3] for row in rows]
    polygons = optmech.geometry.best_response_regions(rect, mech.menu)
    assert len(areas) == len(mech.menu)
    assert sum(areas) == pytest.approx(rect.area, rel=1e-15)
    for area, poly in zip(areas, polygons):
        # the polygons lie on the unit square u = (z - c)/b
        assert area == pytest.approx(rect.area * poly.area(), rel=1e-12, abs=1e-15 * rect.area)


def _exact_revenue(menu, rect):
    # the menu's revenue in rational arithmetic: every clip and area is
    # exact on the rational unit square
    _, items, regions = exact_regions(rect, menu)
    return sum((i.t * exact_area(r) for i, r in zip(items, regions)), Fraction(0))


def test_kind_g_revenue_is_exact_to_rounding():
    # the good-2 lottery line meets the support's edge 7e-13 short of the
    # cut, and the polygon revenue of the mirrored kind-D menu is 6e-13
    # off the exact revenue there
    rect = Rectangle(0.4637221434032175, 0.0015094564449771076, 0.23332377944819968, 0.47703342290948475)
    mech = solve(rect)
    assert mech.kind is StructureKind.G
    exact = _exact_revenue(mech.menu, rect)
    assert abs(Fraction(mech.revenue) - exact) <= Fraction(1, 10**15) * exact
