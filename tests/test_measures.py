"""Boundary-measure evaluation and the 1-D shuffling measures."""

import math
import random

import pytest

from optmech.geometry import UNIT_SQUARE, best_response_regions, clip
from helpers import (
    SLIVER_SUPPORTS,
    alpha_params,
    check_interval_measure_cvx_zero,
    log_uniform,
    mirror,
    mu_bar_of_polygon,
    rect_polygon,
    to_unit,
    value_moments,
)
from optmech.measures import MuBar, Shuffle
from optmech.mechanism import build_mechanism
from optmech.oracle import _lottery_shuffle
from optmech.solver import solve
from optmech.types import NULL_ITEM, MenuItem, Rectangle, StructureKind

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def _menu_shuffle(mech, rect):
    # the shuffle the certificate builds from the menu's (a, 1) lottery,
    # its net price and its best-response region
    (i,) = [i for i, it in enumerate(mech.menu) if it.q2 == 1.0 and it.q1 < 1.0]
    region = best_response_regions(rect, mech.menu, mech.net_prices)[i]
    return _lottery_shuffle(rect, mech.menu[i], mech.net_prices[i], region)


@pytest.mark.parametrize(
    "rect",
    [UNIT, Rectangle(0.1, 0.1, 1.0, 1.0), Rectangle(2.0, 0.3, 0.7, 5.0), Rectangle(0.0, 4.0, 3.0, 0.5)],
)
def test_total_measure_of_rectangle_is_zero(rect):
    total = MuBar(rect).total()
    assert abs(total) <= 1e-12, f"whole-support measure {total} should vanish"


def test_unit_square_component_breakdown():
    mu = MuBar(UNIT)
    sq = rect_polygon(UNIT)
    mass, m1, m2 = mu.moments(sq)
    # interior -3, top edge +1, right edge +1, corner atom +1
    assert mass == pytest.approx(0.0, abs=1e-14)
    # moments: interior -3*(1/2), top edge +1*(1/2) in z1 and +1*1 in z2,
    # right edge +1*1 in z1 and +1*(1/2) in z2, atom at (0,0) adds nothing
    assert m1 == pytest.approx(0.0, abs=1e-14)
    assert m2 == pytest.approx(0.0, abs=1e-14)


def test_corner_atom_counted_once():
    rect = Rectangle(0.5, 0.25, 1.0, 2.0)
    mu = MuBar(rect)
    tiny = to_unit(rect, rect_polygon(Rectangle(rect.c1, rect.c2, 1e-3, 1e-3)))
    mass = mu.mass(tiny)
    assert mass == pytest.approx(1.0, abs=1e-2), "small corner neighborhood is dominated by the unit atom"
    off = to_unit(rect, rect_polygon(Rectangle(rect.c1 + 0.3, rect.c2 + 0.3, 1e-3, 1e-3)))
    assert abs(mu.mass(off)) < 1e-5


def test_interior_patch_has_pure_density_mass():
    rect = Rectangle(0.2, 0.3, 2.0, 1.5)
    patch = rect_polygon(Rectangle(0.5, 0.6, 0.4, 0.2))
    expected = -3.0 / rect.area * 0.4 * 0.2
    assert mu_bar_of_polygon(rect, patch) == pytest.approx(expected, rel=1e-12)


def test_polygon_outside_the_unit_square_is_rejected():
    # polygons are measured as given, so one reaching past the support
    # is an error, not clipped
    rect = Rectangle(0.5, 0.5, 1.0, 1.0)
    big = to_unit(rect, rect_polygon(Rectangle(0.0, 0.0, 5.0, 5.0)))
    with pytest.raises(ValueError, match="unit square"):
        MuBar(rect).mass(big)


def test_measure_additivity_across_a_cut():
    rect = Rectangle(0.3, 0.1, 1.4, 0.9)
    mu = MuBar(rect)
    cut = (0.9 - rect.c1) / rect.b1  # z1 = 0.9
    left = clip(UNIT_SQUARE, 1.0, 0.0, cut)
    right = clip(UNIT_SQUARE, -1.0, 0.0, -cut)
    w, a, b = (mu.moments(poly) for poly in (UNIT_SQUARE, left, right))
    assert w[0] == mu.total(), "the whole square takes every side and the atom"
    for k, name in enumerate(("mass", "m1", "m2")):
        assert a[k] + b[k] == pytest.approx(w[k], abs=1e-12), f"{name} must add across the cut"


def _random_menus(n: int = 60):
    """Seeded menus on seeded supports, as (rect, menu, nets), each with the
    null item: every other menu prices each item at a net of 1e-13..1e-9
    of its top value, so the null region is a sliver at the corner."""
    rng = random.Random(5)
    cases = []
    for i in range(n):
        b1, b2 = (log_uniform(rng, 0.3, 3.0) for _ in range(2))
        rect = Rectangle(rng.uniform(0.0, 5.0) * b1, rng.uniform(0.0, 5.0) * b2, b1, b2)
        menu, nets = [NULL_ITEM], [0.0]
        for _ in range(rng.randint(1, 3)):
            q1, q2 = rng.choice([(rng.random(), 1.0), (1.0, rng.random()), (1.0, 1.0), (rng.random(), rng.random())])
            net = (q1 * b1 + q2 * b2) * (log_uniform(rng, 1e-13, 1e-9) if i % 2 else rng.random())
            menu.append(MenuItem(q1, q2, net + q1 * rect.c1 + q2 * rect.c2))
            nets.append(net)
        cases.append((rect, tuple(menu), tuple(nets)))
    return cases


def _solved_menus(n: int = 60):
    """The pinned sliver supports and seeded supports with sides 0.3..3 and
    offsets 0..5 sides, as (rect, menu, nets) of the solved menu with the
    null item."""
    rng = random.Random(6)
    rects = [*SLIVER_SUPPORTS]
    for _ in range(n):
        b1, b2 = (log_uniform(rng, 0.3, 3.0) for _ in range(2))
        rects.append(Rectangle(rng.uniform(0.0, 5.0) * b1, rng.uniform(0.0, 5.0) * b2, b1, b2))
    cases = []
    for rect in rects:
        mech = solve(rect)
        menu, nets = mech.menu, mech.net_prices
        if NULL_ITEM not in menu:
            menu, nets = (*menu, NULL_ITEM), (*nets, 0.0)
        cases.append((rect, menu, nets))
    return cases


def test_regions_lie_in_the_square_and_take_the_atom_and_each_side_once():
    # MuBar reads the sides and the corner exactly, which is sound because
    # every region vertex lies in the unit square and the regions' masses
    # add up to the whole square's
    for rect, menu, nets in [*_random_menus(), *_solved_menus()]:
        mu = MuBar(rect)
        regions = best_response_regions(rect, menu, nets)
        assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for r in regions for x, y in r.vertices), rect
        total = sum(mu.mass(region) for region in regions)
        assert abs(total - mu.total()) <= 1e-12, (rect, menu, total)


# ---------------------------------------------------------------------------
# Shuffle


def _lottery_cases(n_each: int = 12):
    """Seeded solves with a partial lottery (a1, 1), 0 < a1 < 1, as (mech,
    rect) in the top-edge frame: kinds A, B and D, and kind A's good-2
    lottery on the swapped support."""
    rng = random.Random(11)

    def small_large() -> tuple[float, float]:
        # c2/b2 inside the SmallLarge band at c1/b1 = u
        u = rng.uniform(0.05, 0.9)
        return u, 2.0 * rng.uniform((1.0 + u) / (1.0 + 3.0 * u), 1.0 / (1.0 - u) ** 2)

    recipes = {
        StructureKind.A: lambda: (rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05)),
        StructureKind.B: lambda: (rng.uniform(0.01, 0.5), rng.uniform(0.3, 1.5)),
        StructureKind.D: small_large,
    }
    counts = dict.fromkeys(recipes, 0)
    cases = []
    for _ in range(20 * n_each):
        if min(counts.values()) >= n_each:
            break
        r1, r2 = recipes[min(counts, key=counts.get)]()
        b1, b2 = math.exp(rng.uniform(-1.0, 1.0)), math.exp(rng.uniform(-1.0, 1.0))
        rect = Rectangle(r1 * b1, r2 * b2, b1, b2)
        mech = solve(rect)
        if mech.kind in (StructureKind.F, StructureKind.G):
            mech, rect = mirror(mech), rect.swapped()
        frames = [(mech, rect)]
        if mech.kind is StructureKind.A:
            frames.append((mirror(mech), rect.swapped()))
        for m, r in frames:
            if m.kind in counts and 0.0 < m.params.a1 < 1.0:
                counts[m.kind] += 1
                cases.append((m, r))
    assert min(counts.values()) >= n_each, counts
    return cases


def test_shuffle_is_minus_the_lottery_region_measure():
    # the closed-form shuffle of a partial lottery is the transformed
    # measure of that lottery's best-response region, with the sign flipped
    for mech, rect in _lottery_cases():
        (i,) = [i for i, it in enumerate(mech.menu) if it.q2 == 1.0 and 0.0 < it.q1 < 1.0]
        mass, m1, _ = value_moments(rect, best_response_regions(rect, mech.menu)[i])
        sh = _menu_shuffle(mech, rect)
        assert sh.mass() == pytest.approx(-mass, abs=1e-12), f"{mech.kind} on {rect}"
        assert sh.first_moment() == pytest.approx(-(m1 - rect.c1 * mass), abs=1e-12), f"{mech.kind} on {rect}"


def test_alpha_params_zero_mass_and_moment():
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    for p_a in (0.701, 0.72, 0.74):
        sh = alpha_params(rect, p_a)
        assert abs(sh.mass()) < 1e-15, f"alpha shuffle mass at p_a={p_a}"
        assert abs(sh.first_moment()) < 1e-15, f"alpha shuffle moment at p_a={p_a}"
        assert sh.sign_pattern_ok()


def test_alpha_params_frozen_values():
    # at p_a = 0.7 the closed forms are exactly a = 1/6, m = 0.6
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    sh = alpha_params(rect, 0.7 + 1e-13)
    assert sh.a == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert sh.ramp_end == sh.end == pytest.approx(0.6, abs=1e-9)


def test_alpha_numeric_cross_check():
    # density is linear in the offset, so the trapezoid rule is exact
    rect = Rectangle(0.2, 0.3, 1.5, 1.1)
    sh = alpha_params(rect, 0.8)
    n = 4000
    h = sh.end / n
    total = sh.point_mass()
    moment = 0.0
    for i in range(n):
        x0, x1 = i * h, (i + 1) * h
        d0, d1 = sh.density(x0), sh.density(x1)
        total += 0.5 * (d0 + d1) * h
        moment += 0.5 * (d0 * x0 + d1 * x1) * h
    assert total == pytest.approx(sh.mass(), abs=1e-12)
    assert moment == pytest.approx(sh.first_moment(), abs=1e-8)


def test_alpha_params_out_of_bracket_raises():
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        alpha_params(rect, 0.6)  # below (2 b2 - c2)/3
    with pytest.raises(ValueError):
        alpha_params(rect, 1.0)  # at b2


def test_beta_ramp_end_and_densities():
    rect = Rectangle(0.2, 2.8, 1.0, 1.0)
    # the kind-D menu of a lottery line meeting the bottom edge at the cut
    # p = 0.4, and of a steeper one meeting it at 0.24
    fields = dict(p_a1=0.12, a1=0.3, m1=0.4, p=0.4)
    sh = _menu_shuffle(build_mechanism((StructureKind.D, fields, False), rect), rect)
    assert sh.ramp_end == pytest.approx(0.4), "ramp longer than the segment is cut at p"
    fields = dict(p_a1=0.12, a1=0.5, m1=0.24, p=0.4)
    sh2 = _menu_shuffle(build_mechanism((StructureKind.D, fields, False), rect), rect)
    assert sh2.ramp_end == pytest.approx(0.24)
    assert sh2.end == pytest.approx(0.4, abs=1e-15)
    assert sh2.density(0.3) == pytest.approx(2.0 * rect.b2 / rect.area)


def test_beta_numeric_cross_check():
    # the density jumps at ramp_end, so integrate each smooth piece separately
    rect = Rectangle(0.2, 2.8, 1.0, 1.0)
    sh = Shuffle(rect, 0.1, 0.33, 0.1 / 0.33, 0.4)
    n = 8000
    total = sh.point_mass()
    moment = 0.0
    for lo, hi in ((0.0, sh.ramp_end), (sh.ramp_end, sh.end)):
        h = (hi - lo) / n
        for i in range(n):
            x = lo + (i + 0.5) * h
            d = sh.density(x)
            total += d * h
            moment += d * x * h
    assert total == pytest.approx(sh.mass(), abs=1e-6)
    assert moment == pytest.approx(sh.first_moment(), abs=1e-6)


def test_a_ramp_that_ends_the_segment_must_end_nonnegative():
    # base density 2 b2 - c2 - 3 p_a = -0.6 (per b1 b2), a nonnegative atom
    # c1 (b2 - p_a) = 0.02, and a ramp that runs to the segment's end: the
    # end density, not the flat one, decides the last sign
    rect = Rectangle(0.1, 0.2, 1.0, 1.0)
    short = Shuffle(rect, 0.8, 0.1, 0.5, 0.5)
    assert short.point_mass() > 0.0 and short.density(0.0) < 0.0
    assert short.density(short.end) == pytest.approx(-0.45)
    assert not short.sign_pattern_ok()
    steep = Shuffle(rect, 0.8, 0.5, 0.5, 0.5)
    assert steep.density(steep.end) == pytest.approx(0.15)
    assert steep.sign_pattern_ok()


def test_beta_e_zero_mass_and_moment_at_no_exclusion_instance():
    rect = Rectangle(0.5, 8.0, 1.0, 1.0)
    sh = _menu_shuffle(build_mechanism((StructureKind.E, {"p": 0.25}, False), rect), rect)
    assert abs(sh.mass()) < 1e-15, "two-step shuffle mass at the structure-E instance"
    assert abs(sh.first_moment()) < 1e-15
    assert sh.sign_pattern_ok()
    assert sh.ramp_end == pytest.approx(0.125), "step break b1 b2 / c2"
    assert sh.end == pytest.approx(0.25), "half span (b1 - c1)/2"


def test_beta_e_moment_is_nonnegative_above_threshold():
    # deeper inside the region the mass still cancels but the moment is positive
    rect = Rectangle(0.5, 9.0, 1.0, 1.0)
    sh = _menu_shuffle(build_mechanism((StructureKind.E, {"p": 0.25}, False), rect), rect)
    assert abs(sh.mass()) < 1e-15
    assert sh.first_moment() > 1e-4


def test_check_interval_measure_report_keys():
    rect = Rectangle(0.1, 0.1, 1.0, 1.0)
    rep = check_interval_measure_cvx_zero(alpha_params(rect, 0.72))
    assert set(rep) == {"total_mass", "first_moment", "sign_pattern_ok"}
    assert rep["sign_pattern_ok"] is True
    assert abs(rep["total_mass"]) < 1e-12


def test_edge_moments_of_top_strip():
    # a strip touching the top edge picks up the positive line density
    rect = Rectangle(0.0, 0.0, 2.0, 1.0)
    strip = rect_polygon(Rectangle(0.5, 0.75, 1.0, 0.25))
    mass, m1, m2 = value_moments(rect, to_unit(rect, strip))
    area = 0.25
    expected_mass = -3.0 / 2.0 * area + (1.0 / 2.0) * 1.0
    assert mass == pytest.approx(expected_mass, abs=1e-12)
    # edge first moment in z1: density * integral of z1 over [0.5, 1.5]
    top_m1 = (1.0 / 2.0) * 0.5 * (1.5**2 - 0.5**2)
    interior_m1 = -3.0 / 2.0 * area * 1.0
    assert m1 == pytest.approx(top_m1 + interior_m1, abs=1e-12)
    assert m2 == pytest.approx(-3.0 / 2.0 * area * 0.875 + 0.5 * 1.0 * 1.0, abs=1e-12)
