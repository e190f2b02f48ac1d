"""Randomized invariants: measure balance, partitions, duality, solver laws."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RATIO_SUPPORTS,
    VERIFY_CENTRES,
    admissible_structures,
    log_uniform,
    polygon_intersection,
    primal_objective,
    random_menu,
    revenue_monotonicity_check,
    rival_revenue,
    utility,
)
from optmech.geometry import UNIT_SQUARE, best_response_regions, clip
from optmech.measures import MuBar
from optmech.mechanism import expected_revenue
from optmech.oracle import certificate_check
from optmech.solver import classify, solve
from optmech.types import NULL_ITEM, Rectangle

MIRROR_KIND = {"A": "A", "B": "F", "C": "C", "D": "G", "E": "H", "F": "B", "G": "D", "H": "E"}

sides = st.floats(min_value=0.3, max_value=3.0, allow_nan=False, allow_infinity=False)
corner_ratios = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)
unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def rectangles(draw):
    b1 = draw(sides)
    b2 = draw(sides)
    return Rectangle(draw(corner_ratios) * b1, draw(corner_ratios) * b2, b1, b2)


@st.composite
def threshold_rectangles(draw):
    """Rectangles on a ``classify`` threshold or 1e-14..1e-2 (relative) to
    either side of it, with c1 = 0 or c1 > 0, mirrored half the time.

    The thresholds are the SmallSmall curve c2 = 2 b2 (b1+c1)/(b1+3 c1),
    the SmallVeryLarge curve c2 = 2 b2 (b1/(b1-c1))^2 and the BothLarge
    line c1 = b1 (with c2 inside the SmallLarge band); the mirror adds
    their swapped counterparts.
    """
    b1, b2 = draw(sides), draw(sides)
    c1 = b1 * draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.95))
    which = draw(st.sampled_from(["small_small", "very_large", "both_large"]))
    if which == "small_small":
        c2 = 2.0 * b2 * ((b1 + c1) / (b1 + 3.0 * c1))
    elif which == "very_large":
        c2 = 2.0 * b2 * (b1 / (b1 - c1)) ** 2
    else:
        c1, c2 = b1, b2 * (1.0 + draw(st.floats(min_value=0.01, max_value=5.0)))
    side = draw(st.sampled_from([0.0, -1.0, 1.0]))
    shift = 1.0 + side * 10.0 ** draw(st.floats(min_value=-14.0, max_value=-2.0))
    if which == "both_large":
        c1 *= shift
    else:
        c2 *= shift
    rect = Rectangle(c1, c2, b1, b2)
    return rect.swapped() if draw(st.booleans()) else rect


#: A corner offset of 0 or 1e-12..1e3 sides, as a power of 10.
_offsets = st.just(0.0) | st.floats(min_value=-12.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def lopsided_rectangles(draw):
    """Rectangles with the side ratio b2/b1 in 1e-6..1e6 and each corner
    offset 0 or 1e-12..1e3 of its side."""
    b2 = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    return Rectangle(draw(_offsets), draw(_offsets) * b2, 1.0, b2)


def _admissible_draw(rng: random.Random, n: int) -> list[Rectangle]:
    """Half with sides 0.3..3 and offsets 0 or up to 4 sides, half
    lopsided: side ratios 1e-6..1e6 and offsets 0 or 1e-12..1e3 sides,
    mirrored every other time."""
    rects = []
    for i in range(n):
        if i % 2:
            b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            c1, c2 = (0.0 if rng.random() < 0.1 else rng.uniform(0.0, 4.0) * b for b in (b1, b2))
            rects.append(Rectangle(c1, c2, b1, b2))
        else:
            b2 = log_uniform(rng, 1e-6, 1e6)
            c1, c2 = (0.0 if rng.random() < 0.2 else log_uniform(rng, 1e-12, 1e3) * b for b in (1.0, b2))
            rect = Rectangle(c1, c2, 1.0, b2)
            rects.append(rect.swapped() if i % 4 else rect)
    return rects


def _assert_solve_is_the_best_admissible_structure(rect: Rectangle) -> set[str]:
    # the optimum is one of the structures, each with at most one
    # admissible root, and the first that exists is the best; returns the
    # kinds that exist
    found = admissible_structures(rect)
    for kind, mechs in found.items():
        assert len(mechs) <= 1, f"{len(mechs)} admissible kind-{kind.value} roots on {rect}"
    best = max(mech.revenue for mechs in found.values() for mech in mechs)
    assert solve(rect).revenue >= best * (1.0 - 1e-12), rect
    return {kind.value for kind, mechs in found.items() if mechs}


@st.composite
def far_rectangles(draw):
    """Supports scaled by lam in 1e-6..1e6, with the side ratio in 1..1e12
    either way round and each corner offset 0 or 1e-3..1e4 of its side,
    log-uniform."""
    power = lambda lo, hi: 10.0 ** draw(st.floats(min_value=lo, max_value=hi))
    b1 = draw(sides)
    b2 = b1 * power(0.0, 12.0)
    c1, c2 = (0.0 if draw(st.booleans()) else power(-3.0, 4.0) * b for b in (b1, b2))
    rect = Rectangle(c1, c2, b1, b2)
    return (rect.swapped() if draw(st.booleans()) else rect).scaled(power(-6.0, 6.0))


@settings(max_examples=200, deadline=None)
@given(far_rectangles())
@example(RATIO_SUPPORTS[0].scaled(1e-6))
def test_the_certificate_passes_at_every_scale_side_ratio_and_offset(rect):
    report = certificate_check(solve(rect), rect)
    assert report.passed, f"{rect}: failures {report.failures}"


def test_solve_earns_the_best_of_the_admissible_structures():
    rects = _admissible_draw(random.Random("admissible structures"), 5000)
    kinds = set().union(*map(_assert_solve_is_the_best_admissible_structure, rects))
    # the draw reaches every structure found from a root
    assert kinds == set("ABCDFG"), kinds


@settings(max_examples=400, deadline=None)
@given(st.one_of(rectangles(), lopsided_rectangles()))
def test_solve_earns_the_best_of_the_admissible_structures_hypothesis(rect):
    _assert_solve_is_the_best_admissible_structure(rect)


@settings(max_examples=50, deadline=None)
@given(rectangles())
def test_transformed_measure_has_zero_total(rect):
    assert abs(MuBar(rect).total()) < 1e-9, f"nonzero total on {rect}"


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.floats(min_value=0.05, max_value=0.95))
def test_measure_moments_are_additive_across_a_cut(rect, frac):
    mu = MuBar(rect)
    left = clip(UNIT_SQUARE, 1.0, 0.0, frac)
    right = clip(UNIT_SQUARE, -1.0, 0.0, -frac)
    whole = mu.moments(UNIT_SQUARE)
    assert whole[0] == mu.total(), "the whole square takes every side and the atom"
    for part_sum, total in zip((a + b for a, b in zip(mu.moments(left), mu.moments(right))), whole):
        assert abs(part_sum - total) < 1e-9


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.integers(min_value=0, max_value=2**31 - 1))
def test_best_response_regions_partition_the_support(rect, seed):
    rng = np.random.default_rng(seed)
    menu = random_menu(rng, rect)
    regions = best_response_regions(rect, menu)
    assert len(regions) == len(menu)
    # regions are polygons on the unit square u = (z - c)/b
    total = sum(r.area() for r in regions)
    assert abs(total - 1.0) < 1e-9, "region areas must tile the support"
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            overlap = polygon_intersection(regions[i], regions[j]).area()
            assert overlap < 1e-9, f"items {i} and {j} overlap"


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.integers(min_value=0, max_value=2**31 - 1))
def test_primal_objective_equals_revenue(rect, seed):
    rng = np.random.default_rng(seed)
    menu = random_menu(rng, rect)
    lhs = primal_objective(menu, rect)
    rhs = expected_revenue(menu, rect)
    scale = max(abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-9 * scale, f"duality gap {lhs - rhs} on {rect}"


def _assert_solved_shape(mech):
    # at most four items, the full bundle, and the buyer's outside option
    # except where every type buys (kinds E and H): a record holds any
    # menu, so these are laws of solve
    assert 1 <= len(mech.menu) <= 4
    assert any(item.is_bundle for item in mech.menu), mech.menu
    assert mech.kind.value in "EH" or any(item.is_null for item in mech.menu), mech.menu


@settings(max_examples=40, deadline=None)
@given(rectangles())
def test_solved_menus_obey_the_structural_laws(rect):
    mech = solve(rect)
    _assert_solved_shape(mech)
    assert revenue_monotonicity_check(mech.menu, rect, 11)
    assert mech.revenue == expected_revenue(mech.menu, rect) or (
        abs(mech.revenue - expected_revenue(mech.menu, rect)) < 1e-9 * max(mech.revenue, 1.0)
    )


@pytest.mark.parametrize("scale", [4.0**-30, 1.0, 4.0**30])
@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("kind", sorted(VERIFY_CENTRES))
def test_solved_menus_keep_their_shape_at_every_centre_mirror_and_scale(kind, mirrored, scale):
    rect = VERIFY_CENTRES[kind].scaled(scale)
    mech = solve(rect.swapped() if mirrored else rect)
    assert mech.kind.value == (MIRROR_KIND[kind] if mirrored else kind)
    _assert_solved_shape(mech)


@settings(max_examples=40, deadline=None)
@given(rectangles(), unit_coords, unit_coords, unit_coords, unit_coords)
def test_utility_is_one_lipschitz(rect, x1, y1, x2, y2):
    mech = solve(rect)
    z = (rect.c1 + x1 * rect.b1, rect.c2 + y1 * rect.b2)
    w = (rect.c1 + x2 * rect.b1, rect.c2 + y2 * rect.b2)
    uz, _ = utility(mech.menu, z)
    uw, _ = utility(mech.menu, w)
    bound = abs(z[0] - w[0]) + abs(z[1] - w[1])
    assert abs(uz - uw) <= bound + 1e-12
    assert uz >= 0.0 and uw >= 0.0, "participation must never hurt"


@settings(max_examples=400, deadline=None)
@given(threshold_rectangles())
@example(Rectangle(0.0, 2.0, 2.3220394, 1.0))
@example(Rectangle(0.0, 2.65625, 1.0, 1.328125))
def test_solve_is_never_beaten_by_a_simple_menu(rect):
    mech = solve(rect)
    rival = rival_revenue(rect)
    # the rival's revenue is summed over clipped polygons and the solver's
    # in closed form, which round apart on these supports
    assert mech.revenue >= rival * (1.0 - 1e-10), f"{mech.kind.value} at {mech.revenue} < {rival} on {rect}"


@settings(max_examples=400, deadline=None)
@given(rectangles(), st.floats(min_value=0.1, max_value=10.0))
@example(Rectangle(0.0, 0.0, 0.3, 0.6), 0.296875)
def test_scaling_the_support_scales_the_mechanism(rect, lam):
    base = solve(rect)
    scaled = solve(rect.scaled(lam))
    assert scaled.kind == base.kind, f"kind changed under scaling of {rect}"
    assert abs(scaled.revenue - lam * base.revenue) < 1e-7 * max(lam * base.revenue, 1.0)
    assert len(scaled.menu) == len(base.menu)
    for item, ref in zip(scaled.menu, base.menu):
        assert abs(item.q1 - ref.q1) < 1e-7
        assert abs(item.q2 - ref.q2) < 1e-7
        assert abs(item.t - lam * ref.t) < 1e-7 * max(lam * ref.t, 1.0)


@settings(max_examples=400, deadline=None)
@given(threshold_rectangles(), st.floats(min_value=0.1, max_value=10.0))
def test_scaling_a_threshold_support_scales_the_menu(rect, lam):
    base = solve(rect)
    scaled = solve(rect.scaled(lam))
    if classify(rect.scaled(lam)) is classify(rect):
        assert scaled.kind == base.kind, f"kind changed under scaling of {rect}"
    # otherwise rounding of the scaled coordinates moved a support on a
    # threshold with c1 > 0 across it, and the kind is the structure of the
    # other side (B and D, D and E, ...); both name the same menu up to a
    # null item, which no type strictly prefers there
    assert abs(scaled.revenue - lam * base.revenue) < 1e-7 * max(lam * base.revenue, 1.0)
    items = [item for item in scaled.menu if item != NULL_ITEM]
    refs = [item for item in base.menu if item != NULL_ITEM]
    assert len(items) == len(refs)
    for item, ref in zip(items, refs):
        assert abs(item.q1 - ref.q1) < 1e-7
        assert abs(item.q2 - ref.q2) < 1e-7
        assert abs(item.t - lam * ref.t) < 1e-7 * max(lam * ref.t, 1.0)


@settings(max_examples=400, deadline=None)
@given(st.one_of(rectangles(), threshold_rectangles()))
@example(Rectangle(0.0, 2.0, 2.3220394, 1.0))
@example(Rectangle(0.0, 2.65625, 1.0, 1.328125))
def test_swapping_the_goods_mirrors_the_solution(rect):
    mech = solve(rect)
    mirrored = solve(rect.swapped())
    assert mirrored.kind.value == MIRROR_KIND[mech.kind.value]
    scale = max(abs(mech.revenue), 1.0)
    assert abs(mirrored.revenue - mech.revenue) < 1e-9 * scale


def test_revenue_is_continuous_across_every_kind_change():
    # optimal revenue is continuous in the support, so a jump where the
    # kind changes means a wrong branch.  Along seeded lines of c2/b2 over
    # [0, 6], half of them at c1 = 0, each kind change is bisected to
    # adjacent floats of c2 and the revenue compared across it
    rng = random.Random("kind changes")
    changes = 0
    for line in range(120):
        b1, b2 = (math.exp(rng.uniform(math.log(0.3), math.log(3.0))) for _ in range(2))
        c1 = 0.0 if line % 2 else rng.uniform(0.0, 3.0) * b1

        def at(c2, c1=c1, b1=b1, b2=b2):
            return c2, solve(Rectangle(c1, c2, b1, b2))

        left = at(0.0)
        for k in range(1, 61):
            right = at(6.0 * b2 * k / 60)
            lo, hi = left, right
            while lo[1].kind is not hi[1].kind and lo[0] < 0.5 * (lo[0] + hi[0]) < hi[0]:
                mid = at(0.5 * (lo[0] + hi[0]))
                lo, hi = (mid, hi) if mid[1].kind is lo[1].kind else (lo, mid)
            if lo[1].kind is not hi[1].kind:
                changes += 1
                assert hi[1].revenue == pytest.approx(lo[1].revenue, rel=1e-12, abs=0.0), (c1, lo, hi)
            left = right
    assert changes >= 200
