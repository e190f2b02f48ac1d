"""Validation, serialization, and invariants of the core value types."""

import copy
import math
import pickle
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from helpers import bundle_item, corners, item_utility, mechanism_from_json, mirror, solve_params_from_dict
from optmech.types import (
    NULL_ITEM,
    Mechanism,
    MenuItem,
    NegativeCorner,
    NonPositiveSide,
    PriceOverflow,
    Rectangle,
    SolveParams,
    StructureKind,
    UnitSizeOverflow,
    unit_scale,
)


def test_rectangle_accepts_valid_inputs():
    r = Rectangle(0.0, 0.5, 1.0, 2.0)
    assert r.z1_max == 1.0
    assert r.z2_max == 2.5
    assert r.area == 2.0


@pytest.mark.parametrize("b1,b2", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0)])
def test_rectangle_rejects_bad_sides(b1, b2):
    with pytest.raises(NonPositiveSide):
        Rectangle(0.0, 0.0, b1, b2)


@pytest.mark.parametrize("c1,c2", [(-0.1, 0.0), (0.0, -1.0), (math.nan, 0.0)])
def test_rectangle_rejects_bad_corners(c1, c2):
    with pytest.raises(NegativeCorner):
        Rectangle(c1, c2, 1.0, 1.0)


_BAD = [math.nan, math.inf, -math.inf, -1.5]


@pytest.mark.parametrize("value", _BAD + [0.0], ids=repr)
@pytest.mark.parametrize("name", ["b1", "b2"])
def test_rectangle_names_the_bad_side(name, value):
    args = {"c1": 0.5, "c2": 0.5, "b1": 1.0, "b2": 1.0, name: value}
    with pytest.raises(NonPositiveSide) as exc:
        Rectangle(**args)
    assert type(exc.value) is NonPositiveSide
    assert str(exc.value) == f"{name} must be finite and > 0, got {value!r}"


@pytest.mark.parametrize("value", _BAD, ids=repr)
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_rectangle_names_the_bad_corner(name, value):
    args = {"c1": 0.5, "c2": 0.5, "b1": 1.0, "b2": 1.0, name: value}
    with pytest.raises(NegativeCorner) as exc:
        Rectangle(**args)
    assert type(exc.value) is NegativeCorner
    assert str(exc.value) == f"{name} must be finite and >= 0, got {value!r}"


def test_rectangle_checks_the_sides_before_the_corners():
    with pytest.raises(NonPositiveSide, match="^b2 "):
        Rectangle(-1.0, math.nan, 1.0, 0.0)


@pytest.mark.parametrize("value", _BAD + [1.5], ids=repr)
@pytest.mark.parametrize("name", ["q1", "q2"])
def test_menu_item_names_the_bad_allocation(name, value):
    args = {"q1": 0.5, "q2": 0.5, "t": 1.0, name: value}
    with pytest.raises(ValueError) as exc:
        MenuItem(**args)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{name} must lie in [0, 1], got {value!r}"


@pytest.mark.parametrize("value", _BAD, ids=repr)
def test_menu_item_names_the_bad_price(value):
    with pytest.raises(ValueError) as exc:
        MenuItem(0.5, 0.5, value)
    if value == math.inf:  # a price past the top of the float range
        assert type(exc.value) is PriceOverflow
        assert str(exc.value) == "a menu price overflows the float range"
    else:
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"t must be finite and >= 0, got {value!r}"


def test_rectangle_corners_are_counterclockwise():
    r = Rectangle(1.0, 2.0, 3.0, 4.0)
    vs = corners(r)
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]))
    assert area2 == pytest.approx(2.0 * r.area), f"corner loop area {area2/2} != {r.area}"


def test_rectangle_swap_and_scale():
    r = Rectangle(1.0, 2.0, 3.0, 4.0)
    assert r.swapped() == Rectangle(2.0, 1.0, 4.0, 3.0)
    assert r.scaled(2.0) == Rectangle(2.0, 4.0, 6.0, 8.0)


def test_unit_scale_keeps_the_window_and_takes_other_widths_to_unit_size():
    for width in (4.0**-20, 1e-9, 1.0, 3e5, 4.0**20):
        assert unit_scale(Rectangle(7.0, 0.0, 0.5 * width, 0.5 * width)) == 1.0
    for b1, b2 in ((1e-200, 3e-200), (1e160, 1.0), (4.0**20, 1e-3), (1.0, 1e-300), (2e-13, 1e-13)):
        lam = unit_scale(Rectangle(0.0, 0.0, b1, b2))
        mantissa, exponent = math.frexp(lam)
        assert mantissa == 0.5 and (exponent - 1) % 2 == 0, lam  # a power of 4
        assert 1.0 <= b1 / lam + b2 / lam < 4.0, (b1, b2)
    # the power stays finite with its inverse, past an overflowing width
    # and down to the smallest subnormal sides
    assert unit_scale(Rectangle(0.0, 0.0, 1e308, 1e308)) == 4.0**511
    assert unit_scale(Rectangle(0.0, 0.0, 5e-324, 5e-324)) == 4.0**-511


def test_unit_scale_names_a_corner_that_overflows_at_unit_size():
    # 1e-300 sides are scaled up by 4^498 (6.7e299), past which a 1e300
    # offset overflows
    assert unit_scale(Rectangle(1e8, 0.0, 1e-300, 1e-300)) == 4.0**-498
    for c1, c2 in ((1e300, 0.0), (0.0, 1e300)):
        with pytest.raises(UnitSizeOverflow, match="overflows at unit size"):
            unit_scale(Rectangle(c1, c2, 1e-300, 1e-300))


def test_unit_scale_refuses_an_area_below_the_normal_range_where_the_support_runs():
    # as given in the window, and at unit size from 4^25 times the sides
    tiny = sys.float_info.min
    below = math.nextafter(tiny, 0.0)
    assert unit_scale(Rectangle(0.0, 0.0, 1.0, tiny)) == 1.0
    assert unit_scale(Rectangle(0.0, 0.0, 4.0**25, 4.0**25 * tiny)) == 4.0**25
    for rect in (Rectangle(0.0, 0.0, 1.0, below), Rectangle(0.0, 0.0, 4.0**25, 4.0**25 * below)):
        with pytest.raises(UnitSizeOverflow, match="subnormal area"):
            unit_scale(rect)


def test_scaling_a_mechanism_scales_prices_and_lengths_not_weights():
    params = SolveParams(p_a1=0.5, p_a2=0.25, a1=0.75, a2=0.5, m1=0.125, m2=1.5, p=1.25, P=(0.5, 2.0), Q=(3.0, 0.25))
    menu = (NULL_ITEM, MenuItem(0.75, 1.0, 1.5), MenuItem(1.0, 0.5, 1.0), MenuItem(1.0, 1.0, 2.5))
    scaled = Mechanism(StructureKind.A, params, menu, 1.75).scaled(4.0)
    assert scaled.kind is StructureKind.A
    assert scaled.params == SolveParams(2.0, 1.0, 0.75, 0.5, 0.5, 6.0, 5.0, (2.0, 8.0), (12.0, 1.0))
    assert scaled.menu == (NULL_ITEM, MenuItem(0.75, 1.0, 6.0), MenuItem(1.0, 0.5, 4.0), MenuItem(1.0, 1.0, 10.0))
    assert scaled.revenue == 7.0
    assert SolveParams(p=0.5).scaled(0.25) == SolveParams(p=0.125)
    bundle_only = Mechanism(StructureKind.C, None, (NULL_ITEM, MenuItem(1.0, 1.0, 2.0)), 0.5)
    assert bundle_only.scaled(2.0) == Mechanism(StructureKind.C, None, (NULL_ITEM, MenuItem(1.0, 1.0, 4.0)), 1.0)


@pytest.mark.parametrize("q1,q2,t", [(-0.1, 0.5, 1.0), (0.5, 1.2, 1.0), (0.5, 0.5, -1.0), (0.5, 0.5, math.inf)])
def test_menu_item_rejects_bad_fields(q1, q2, t):
    with pytest.raises(ValueError):
        MenuItem(q1, q2, t)


def test_menu_item_flags_and_utility():
    assert NULL_ITEM.is_null and not NULL_ITEM.is_bundle
    bundle = MenuItem(1.0, 1.0, 2.0)
    assert bundle.is_bundle and not bundle.is_null
    assert item_utility(bundle, 1.5, 1.0) == pytest.approx(0.5)


def _kind_a_mechanism() -> Mechanism:
    params = SolveParams(p_a1=2 / 3, p_a2=2 / 3, a1=0.0, a2=0.0, m1=0.0, m2=0.0, p=0.9)
    menu = (NULL_ITEM, MenuItem(0.0, 1.0, 2 / 3), MenuItem(1.0, 0.0, 2 / 3), MenuItem(1.0, 1.0, 0.9))
    return Mechanism(kind=StructureKind.A, params=params, menu=menu, revenue=0.55)


def test_mechanism_records_any_menu():
    # the shape of solve's menus is a property of solve, asserted on its
    # records in test_properties; a record holds any menu
    five = (NULL_ITEM,) + tuple(MenuItem(1.0, 1.0, float(k)) for k in range(1, 5))
    assert Mechanism(StructureKind.A, None, five, 0.5).menu == five
    no_bundle = (NULL_ITEM, MenuItem(0.0, 1.0, 0.5), MenuItem(1.0, 0.0, 0.5))
    assert Mechanism(StructureKind.C, SolveParams(p=0.5), no_bundle, 0.3, (0.0, 0.5, 0.5)).menu == no_bundle
    assert Mechanism(StructureKind.C, SolveParams(p=0.5), (MenuItem(1.0, 1.0, 0.5),), 0.3).menu[0].is_bundle
    mech = Mechanism(StructureKind.E, SolveParams(p=0.25), (MenuItem(0.0, 1.0, 8.0), MenuItem(1.0, 1.0, 8.75)), 8.5625)
    assert bundle_item(mech).t == 8.75


def test_net_prices_travel_with_the_menu_outside_equality_and_json():
    mech = replace(_kind_a_mechanism(), net_prices=(0.0, 0.5, 0.25, 0.75))
    assert mech == _kind_a_mechanism()
    assert mech.to_json() == _kind_a_mechanism().to_json()
    # kind A's lotteries trade places in the mirror, and their nets with them
    assert mirror(mech).net_prices == (0.0, 0.25, 0.5, 0.75)
    assert mech.scaled(4.0).net_prices == (0.0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="3 net prices for 4 menu items"):
        replace(mech, net_prices=(0.0, 0.5, 0.75))


def test_mechanism_json_round_trip_is_exact():
    mech = _kind_a_mechanism()
    back = mechanism_from_json(mech.to_json())
    assert back == mech, "shortest-repr float encoding must round-trip exactly"
    assert back.params.p_a1 == mech.params.p_a1


def test_mechanism_json_indent_and_schema():
    mech = _kind_a_mechanism()
    text = mech.to_json(indent=2)
    assert '"kind": "A"' in text
    assert '"revenue"' in text and '"menu"' in text and '"params"' in text


def test_pretty_rounds_to_six_significant_digits():
    mech = _kind_a_mechanism()
    out = mech.pretty()
    assert "kind: A" in out
    assert "0.666667" in out, f"expected 6-digit rounding in:\n{out}"
    assert "revenue: 0.55" in out


def test_solve_params_round_trip_with_points():
    params = SolveParams(p_a1=0.7, a1=1 / 6, m1=0.6, p=0.8, P=(0.7, 0.75), Q=(0.75, 0.7))
    assert solve_params_from_dict(params.to_dict()) == params


def test_structure_kind_values():
    assert {k.value for k in StructureKind} == set("ABCDEFGH")


#: A fresh record of each type, made twice to give two equal values; the
#: kind-A record sets all nine parameters.
_RECORDS = {
    "Rectangle": lambda: Rectangle(0.1, 0.2, 1.0, 2.0),
    "MenuItem": lambda: MenuItem(0.3, 1.0, 1.25),
    "SolveParams": lambda: _kind_a_mechanism_with_points().params,
    "Mechanism": lambda: _kind_a_mechanism_with_points(),
}


def _kind_a_mechanism_with_points() -> Mechanism:
    params = SolveParams(0.5, 0.25, 0.75, 0.5, 0.125, 1.5, 1.25, (0.5, 2.0), (3.0, 0.25))
    menu = (NULL_ITEM, MenuItem(0.75, 1.0, 1.5), MenuItem(1.0, 0.5, 1.0), MenuItem(1.0, 1.0, 2.5))
    return Mechanism(StructureKind.A, params, menu, 1.75, (0.0, 0.5, 0.25, 0.75))


@pytest.mark.parametrize("name", _RECORDS)
def test_records_are_frozen(name):
    record = _RECORDS[name]()
    first = fields(record)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(FrozenInstanceError):
        delattr(record, first)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1.0
    assert record == _RECORDS[name]()


@pytest.mark.parametrize("name", _RECORDS)
def test_equal_records_hash_equal(name):
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", _RECORDS)
def test_records_survive_copy_and_pickle(name):
    record = _RECORDS[name]()
    for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(back) is type(record) and back == record and hash(back) == hash(record)
        # every field, net prices included, which equality leaves out
        assert vars(back) == vars(record)


@pytest.mark.parametrize("name", _RECORDS)
def test_records_list_their_fields_in_declaration_order(name):
    record = _RECORDS[name]()
    assert list(vars(record)) == [f.name for f in fields(record)]
    assert repr(record).startswith(f"{name}({fields(record)[0].name}=")
    assert replace(record) == record and replace(record) is not record


def test_solve_params_vars_lists_the_nine_fields():
    names = ["p_a1", "p_a2", "a1", "a2", "m1", "m2", "p", "P", "Q"]
    assert list(vars(SolveParams())) == names
    assert vars(SolveParams()) == dict.fromkeys(names)
    assert list(vars(SolveParams(p=0.5, a1=0.25))) == names
    assert list(vars(SolveParams.mirrored(p_a1=0.5, P=(1.0, 2.0)))) == names
    with pytest.raises(TypeError):
        SolveParams(x=1.0)


def test_replace_runs_the_checks_again():
    item, rect = MenuItem(0.3, 1.0, 1.25), Rectangle(0.1, 0.2, 1.0, 2.0)
    with pytest.raises(PriceOverflow, match="^a menu price overflows the float range$"):
        replace(item, t=math.inf)
    with pytest.raises(ValueError, match=r"^q1 must lie in \[0, 1\], got 1\.5$"):
        replace(item, q1=1.5)
    with pytest.raises(NonPositiveSide, match="^b1 must be finite and > 0, got 0.0$"):
        replace(rect, b1=0.0)
    with pytest.raises(NegativeCorner, match="^c2 must be finite and >= 0, got -1.0$"):
        replace(rect, c2=-1.0)
    mech = _kind_a_mechanism_with_points()
    with pytest.raises(ValueError, match="^1 net prices for 4 menu items$"):
        replace(mech, net_prices=(0.0,))
    with pytest.raises(TypeError):
        replace(mech.params, x=1.0)
    assert replace(item, t=2.0) == MenuItem(0.3, 1.0, 2.0)
    assert replace(rect, c1=0.0) == Rectangle(0.0, 0.2, 1.0, 2.0)
