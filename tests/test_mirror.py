"""The goods-swap mirror: kinds F/G/H are B/D/E with the goods exchanged."""

import dataclasses
import inspect
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optmech.measures
import optmech.mechanism
from helpers import VERIFY_CENTRES, mirror
from optmech.mechanism import build_mechanism
from optmech.solver import PhaseRegion, _structure, classify, solve
from optmech.types import NULL_ITEM, Mechanism, MenuItem, Rectangle, StructureKind

K = StructureKind
SRC = pathlib.Path(optmech.measures.__file__).parent

#: One solved instance per kind.
INSTANCES = {
    K.A: Rectangle(0.05, 0.05, 1.0, 1.0),
    K.B: Rectangle(4.0, 4.0, 12.0, 3.0),
    K.C: Rectangle(2.0, 2.0, 1.0, 1.0),
    K.D: Rectangle(0.2, 2.8, 1.0, 1.0),
    K.E: Rectangle(0.5, 8.0, 1.0, 1.0),
    K.F: Rectangle(0.0, 0.0, 1.0, 5.0),
    K.G: Rectangle(2.8, 0.2, 1.0, 1.0),
    K.H: Rectangle(8.0, 0.5, 1.0, 1.0),
}

sides = st.floats(min_value=0.3, max_value=3.0, allow_nan=False, allow_infinity=False)
corner_ratios = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def rectangles_outside_small_small(draw):
    b1, b2 = draw(sides), draw(sides)
    rect = Rectangle(draw(corner_ratios) * b1, draw(corner_ratios) * b2, b1, b2)
    if classify(rect) is PhaseRegion.SMALL_SMALL:
        # c2 > 2 b2 lies past both SmallSmall thresholds
        rect = Rectangle(rect.c1, rect.c2 + 5.0 * b2, b1, b2)
    return rect


def _fields(mech):
    # every field of the record, net prices included, each float by its
    # repr: equal is equal to the bit
    return [repr(getattr(mech, field.name)) for field in dataclasses.fields(Mechanism)]


@settings(max_examples=60, deadline=None)
@given(rectangles_outside_small_small())
def test_solving_the_swapped_support_mirrors_the_solution(rect):
    assert classify(rect) is not PhaseRegion.SMALL_SMALL
    # field for field, to the bit; pure bundling too, though it is solved
    # in each orientation on its own: its price forms 2 b1 b2 / 3 with an
    # exact doubling, and its areas and revenue are symmetric in the sides
    assert _fields(solve(rect.swapped())) == _fields(mirror(solve(rect)))


@pytest.mark.parametrize("kind", list(K))
def test_mirroring_twice_is_the_identity(kind):
    mech = solve(INSTANCES[kind])
    assert mech.kind is kind
    once = mirror(mech)
    assert once.kind is kind.swapped()
    assert once.revenue == mech.revenue
    assert mirror(once) == mech


def test_mirrored_kind_a_keeps_its_menu_order():
    menu = mirror(solve(Rectangle(0.04, 0.06, 1.0, 1.1))).menu
    assert menu[0] == NULL_ITEM
    assert menu[1].q2 == 1.0 and menu[1].q1 < 1.0, "good-1 lottery (a1, 1) comes first"
    assert menu[2].q1 == 1.0 and menu[2].q2 < 1.0, "good-2 lottery (1, a2) comes second"
    assert menu[3].is_bundle


def test_only_the_five_shapes_have_builders():
    assert sorted(kind.value for kind in optmech.mechanism._BUILDERS) == list("ABCDE")


@pytest.mark.parametrize("kind", [K.B, K.D, K.E])
def test_mirrored_kinds_are_built_on_the_swapped_support(kind):
    rect = INSTANCES[kind]
    structure = _structure(rect)[0]
    assert structure[0] is kind and not structure[2]
    # the structure solved with the goods exchanged and built so is, field
    # for field and to the bit, the helpers' mirror of its record
    built = build_mechanism((kind, structure[1], True), rect.swapped())
    assert built.kind is kind.swapped()
    assert _fields(built) == _fields(mirror(build_mechanism(structure, rect)))
    # and so is each solved mirror support, at unit size and far from it
    centre = VERIFY_CENTRES[kind.swapped().value]
    for lam in (1.0, 4.0**30, 4.0**-30):
        mech = solve(centre.scaled(lam))
        assert mech.kind is kind.swapped(), lam
        assert _fields(mech) == _fields(mirror(solve(centre.swapped().scaled(lam)))), lam
    # the menu equals the direct closed-form prices of the mirrored kind
    params = built.params
    c1, c2 = rect.swapped().c1, rect.swapped().c2
    if kind is K.B:
        expected = (
            NULL_ITEM,
            MenuItem(1.0, params.a2, c1 + params.p_a2 + params.a2 * c2),
            MenuItem(1.0, 1.0, c1 + c2 + params.p),
        )
    elif kind is K.D:
        t_a2 = c1 + params.p_a2 + params.a2 * c2
        expected = (
            NULL_ITEM,
            MenuItem(1.0, params.a2, t_a2),
            MenuItem(1.0, 1.0, t_a2 + (1.0 - params.a2) * (c2 + params.p)),
        )
    else:
        expected = (
            MenuItem(1.0, 0.0, c1),
            MenuItem(1.0, 1.0, c1 + 0.5 * (c2 + rect.swapped().b2)),
        )
    assert built.menu == expected


def test_the_mirror_is_written_once():
    # F/G/H are named nowhere on the solve or verify path: each is built,
    # solved and checked through its mirror kind (StructureKind.swapped)
    pattern = re.compile(r"\b(?:StructureKind|K)\.[FGH]\b")
    hits = []
    for name in ("solver.py", "mechanism.py", "oracle.py", "measures.py"):
        for lineno, line in enumerate((SRC / name).read_text().splitlines(), start=1):
            if pattern.search(line):
                hits.append((name, lineno))
    assert hits == [], f"kinds F/G/H named at {hits}"


def test_measures_take_no_side_argument():
    for name, obj in vars(optmech.measures).items():
        if getattr(obj, "__module__", None) != optmech.measures.__name__:
            continue
        if inspect.isclass(obj) and not issubclass(obj, Exception):
            callables = [obj] + [m for _, m in inspect.getmembers(obj, inspect.isfunction)]
        elif inspect.isfunction(obj):
            callables = [obj]
        else:
            continue
        for fn in callables:
            assert "side" not in inspect.signature(fn).parameters, f"{name} takes a side argument"
