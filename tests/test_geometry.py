"""Polygon clipping, moments, and best-response partitions."""

from fractions import Fraction

import pytest

from helpers import contains, non_participation_region, polygon_intersection, rect_polygon
from optmech.geometry import (
    EMPTY_POLYGON,
    UNIT_SQUARE,
    Polygon,
    best_response_regions,
    boundary_sections,
    clip,
)
from optmech.types import NULL_ITEM, MenuItem, Rectangle

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def test_clip_by_a_zero_normal_keeps_all_or_nothing():
    # 0 <= d holds everywhere for d >= 0 and nowhere for d < 0
    assert clip(UNIT_SQUARE, 0.0, 0.0, 1.0) == UNIT_SQUARE
    assert clip(UNIT_SQUARE, 0.0, 0.0, 0.0) == UNIT_SQUARE
    assert clip(UNIT_SQUARE, 0.0, 0.0, -1e-300).is_empty


def test_clip_keeps_the_side_below_the_line():
    # n1 z1 + n2 z2 <= d is kept, the boundary line included
    left = clip(UNIT_SQUARE, 1.0, 0.0, 0.5)  # z1 <= 0.5
    assert contains(left, (0.2, 0.9)) and not contains(left, (0.9, 0.2))
    assert contains(left, (0.5, 0.0)) and contains(left, (0.5, 1.0))
    right = clip(UNIT_SQUARE, -1.0, 0.0, -0.5)  # z1 >= 0.5
    assert contains(right, (0.9, 0.2)) and not contains(right, (0.2, 0.9))
    assert sorted(left.vertices + right.vertices) == sorted(UNIT_SQUARE.vertices + ((0.5, 0.0), (0.5, 1.0)) * 2)


def test_polygon_normalizes_orientation_and_duplicates():
    cw = Polygon(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)))
    assert cw.area() == pytest.approx(1.0), "clockwise input must be reversed to CCW"
    assert len(cw.vertices) == 4


def test_degenerate_polygon_is_empty():
    assert Polygon(((0.0, 0.0), (1.0, 0.0))).is_empty
    assert Polygon(((0.2, 0.2), (0.2, 0.2), (0.2, 0.2))).is_empty
    assert EMPTY_POLYGON.area() == 0.0
    assert EMPTY_POLYGON.moments() == (0.0, 0.0, 0.0)


def test_unit_square_moments():
    sq = rect_polygon(UNIT)
    area, m1, m2 = sq.moments()
    assert area == pytest.approx(1.0, abs=1e-15)
    assert m1 == pytest.approx(0.5, abs=1e-15), "integral of z1 over the unit square is 1/2"
    assert m2 == pytest.approx(0.5, abs=1e-15)


def test_triangle_moments():
    tri = Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    area, m1, m2 = tri.moments()
    assert area == pytest.approx(0.5, abs=1e-15)
    assert m1 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert m2 == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_contains_boundary_and_interior():
    sq = rect_polygon(UNIT)
    assert contains(sq, (0.5, 0.5))
    assert contains(sq, (0.0, 0.0)), "closed polygon must contain its vertices"
    assert not contains(sq, (1.1, 0.5))


def test_clip_halves_the_square():
    half = clip(rect_polygon(UNIT), 1.0, 0.0, 0.5)
    assert half.area() == pytest.approx(0.5, abs=1e-15)
    assert all(x <= 0.5 + 1e-12 for x, _ in half.vertices)


def test_clip_to_empty_and_noop():
    sq = rect_polygon(UNIT)
    assert clip(sq, 1.0, 0.0, -0.5).is_empty
    assert clip(sq, 1.0, 0.0, 2.0).area() == pytest.approx(1.0)
    assert clip(EMPTY_POLYGON, 1.0, 0.0, 0.0).is_empty


def test_diagonal_clip_gives_triangle():
    tri = clip(rect_polygon(UNIT), 1.0, 1.0, 0.8)
    assert tri.area() == pytest.approx(0.32, abs=1e-15), "area below z1+z2=0.8 in the unit square"


def test_boundary_sections_bottom_edge():
    sq = rect_polygon(UNIT)
    assert boundary_sections(sq, 1, 0.0) == (0.0, 1.0)
    half = clip(sq, 1.0, 0.0, 0.5)
    span = boundary_sections(half, 1, 0.0)
    assert isinstance(span, tuple) and len(span) == 2
    assert span == pytest.approx((0.0, 0.5))
    assert boundary_sections(half, 1, 0.25) is None


@pytest.mark.parametrize("number", [float, Fraction])
def test_boundary_sections_spans_a_vertex_in_the_middle_of_a_side(number):
    # the bottom side is two edges, and the span runs over both
    poly = Polygon(tuple((number(x), number(y)) for x, y in ((0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1))))
    assert len(poly.vertices) == 5
    assert boundary_sections(poly, 1, number(0)) == (0, 1)


def test_a_corner_sliver_and_its_neighbour_split_the_corner_and_the_sides():
    # the cut u1 + u2 = 1e-12 leaves a sliver at the corner: only the
    # sliver holds the corner, and its hypotenuse lies on no side
    sliver = clip(UNIT_SQUARE, 1.0, 1.0, 1e-12)
    rest = clip(UNIT_SQUARE, -1.0, -1.0, -1e-12)
    assert (0.0, 0.0) in sliver.vertices and (0.0, 0.0) not in rest.vertices
    assert contains(sliver, (0.0, 0.0)) and not contains(rest, (0.0, 0.0))
    for axis in (0, 1):
        low = boundary_sections(sliver, axis, 0.0)
        high = boundary_sections(rest, axis, 0.0)
        assert low == pytest.approx((0.0, 1e-12), rel=1e-4, abs=0.0)
        assert high == pytest.approx((1e-12, 1.0), rel=1e-4, abs=0.0)


def test_best_response_regions_partition_the_square():
    menu = (NULL_ITEM, MenuItem(0.0, 1.0, 2 / 3), MenuItem(1.0, 0.0, 2 / 3), MenuItem(1.0, 1.0, 0.862))
    regions = best_response_regions(UNIT, menu)
    assert len(regions) == len(menu)
    total = sum(r.area() for r in regions)
    assert total == pytest.approx(UNIT.area, rel=1e-12), f"region areas sum to {total}"
    overlap = max(
        polygon_intersection(regions[i], regions[j]).area()
        for i in range(len(regions))
        for j in range(i + 1, len(regions))
    )
    assert overlap <= 1e-12, f"regions overlap with area {overlap}"


def test_identical_allocations_keep_earlier_cheaper_item():
    menu = (NULL_ITEM, MenuItem(1.0, 1.0, 0.5), MenuItem(1.0, 1.0, 0.5), MenuItem(1.0, 1.0, 0.9))
    regions = best_response_regions(UNIT, menu)
    assert regions[1].area() > 0.0
    assert regions[2].is_empty, "exact duplicate loses to the earlier index"
    assert regions[3].is_empty, "pricier copy of the same allocation is never chosen"


def test_non_participation_region_of_pure_bundle():
    poly = non_participation_region(UNIT, (NULL_ITEM, MenuItem(1.0, 1.0, 0.8)))
    assert poly.area() == pytest.approx(0.32, abs=1e-12)
    assert non_participation_region(UNIT, (NULL_ITEM,)).area() == pytest.approx(1.0)


def test_polygon_intersection_of_offset_squares():
    a = rect_polygon(UNIT)
    b = rect_polygon(Rectangle(0.5, 0.5, 1.0, 1.0))
    inter = polygon_intersection(a, b)
    assert inter.area() == pytest.approx(0.25, abs=1e-12)
    assert polygon_intersection(a, EMPTY_POLYGON).is_empty
