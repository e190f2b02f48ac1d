"""Randomized invariants: measure balance, partitions, duality, solver laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import polygon_intersection, random_menu, rival_revenue
from optmech.geometry import best_response_regions, clip, rect_polygon
from optmech.measures import MuBar
from optmech.mechanism import (
    expected_revenue,
    primal_objective,
    revenue_monotonicity_check,
    utility,
)
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


@settings(max_examples=50, deadline=None)
@given(rectangles())
def test_transformed_measure_has_zero_total(rect):
    assert abs(MuBar(rect).total()) < 1e-9, f"nonzero total on {rect}"


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.floats(min_value=0.05, max_value=0.95))
def test_measure_moments_are_additive_across_a_cut(rect, frac):
    mu = MuBar(rect)
    cut = rect.c1 + frac * rect.b1
    whole = rect_polygon(rect)
    left = clip(whole, hp_z1_below(cut))
    right = clip(whole, hp_z1_above(cut))
    for part_sum, total in zip(
        (a + b for a, b in zip(mu.moments(left), mu.moments(right))),
        mu.moments(whole),
    ):
        assert abs(part_sum - total) < 1e-9


def hp_z1_below(value):
    from optmech.geometry import HalfPlane

    return HalfPlane(1.0, 0.0, value)


def hp_z1_above(value):
    from optmech.geometry import HalfPlane

    return HalfPlane(-1.0, 0.0, -value)


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.integers(min_value=0, max_value=2**31 - 1))
def test_best_response_regions_partition_the_support(rect, seed):
    rng = np.random.default_rng(seed)
    menu = random_menu(rng, rect)
    regions = best_response_regions(rect, menu)
    assert len(regions) == len(menu)
    total = sum(r.area() for r in regions)
    assert abs(total - rect.area) < 1e-9 * rect.area, "region areas must tile the support"
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            overlap = polygon_intersection(regions[i], regions[j]).area()
            assert overlap < 1e-9 * rect.area, f"items {i} and {j} overlap"


@settings(max_examples=50, deadline=None)
@given(rectangles(), st.integers(min_value=0, max_value=2**31 - 1))
def test_primal_objective_equals_revenue(rect, seed):
    rng = np.random.default_rng(seed)
    menu = random_menu(rng, rect)
    lhs = primal_objective(menu, rect)
    rhs = expected_revenue(menu, rect)
    scale = max(abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-9 * scale, f"duality gap {lhs - rhs} on {rect}"


@settings(max_examples=40, deadline=None)
@given(rectangles())
def test_solved_menus_obey_the_structural_laws(rect):
    mech = solve(rect)
    assert 1 <= len(mech.menu) <= 4
    assert revenue_monotonicity_check(mech.menu, rect, 11)
    assert mech.revenue == expected_revenue(mech.menu, rect) or (
        abs(mech.revenue - expected_revenue(mech.menu, rect)) < 1e-9 * max(mech.revenue, 1.0)
    )


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
def test_solve_is_never_beaten_by_a_simple_menu(rect):
    mech = solve(rect)
    rival = rival_revenue(rect)
    # expected_revenue drops polygon slivers thinner than an absolute 1e-12,
    # which moves a revenue by up to about 1e-12 relative on these supports
    assert mech.revenue >= rival * (1.0 - 1e-10), f"{mech.kind.value} at {mech.revenue} < {rival} on {rect}"


@settings(max_examples=400, deadline=None)
@given(rectangles(), st.floats(min_value=0.1, max_value=10.0))
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
def test_swapping_the_goods_mirrors_the_solution(rect):
    mech = solve(rect)
    mirrored = solve(rect.swapped())
    assert mirrored.kind.value == MIRROR_KIND[mech.kind.value]
    scale = max(abs(mech.revenue), 1.0)
    assert abs(mirrored.revenue - mech.revenue) < 1e-9 * scale
