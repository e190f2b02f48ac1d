"""Grid-search oracle, measure certificates, and stationarity checks."""

import itertools
import math
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    RATIO_SUPPORTS,
    SLIVER_SUPPORTS,
    VERIFY_CENTRES,
    eager_family_revenue,
    exact_region_masses,
    local_max_check,
    log_uniform,
    price_gradient,
    unpruned_menu_search,
)
from test_mirror import INSTANCES
import optmech
from optmech import oracle
from optmech.geometry import best_response_regions, net_prices
from optmech.measures import MuBar
from optmech.mechanism import expected_revenue
from optmech.oracle import _family_revenue, _pick, brute_force_menu_search, certificate_check
from optmech.solver import solve
from optmech.types import NULL_ITEM, MenuItem, Rectangle, StructureKind, UnitSizeOverflow

K = StructureKind
UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def _assert_family_matches(rect, a1, a2, t1, t2, tb):
    batched = _family_revenue(rect, a1, a2, t1, t2, tb)
    assert np.array_equal(batched, eager_family_revenue(rect, a1, a2, t1, t2, tb)), rect
    for k in range(a1.size):
        menu = (
            NULL_ITEM,
            MenuItem(float(a1[k]), 1.0, float(t1[k])),
            MenuItem(1.0, float(a2[k]), float(t2[k])),
            MenuItem(1.0, 1.0, float(tb[k])),
        )
        exact = expected_revenue(menu, rect)
        assert batched[k] == pytest.approx(exact, abs=1e-10), f"{rect} menu {menu}: {batched[k]} vs {exact}"


def test_family_revenue_matches_exact_polygon_revenue():
    rect = Rectangle(0.3, 0.2, 1.2, 0.8)
    rng = np.random.default_rng(7)
    n = 64
    t_hi = rect.z1_max + rect.z2_max
    _assert_family_matches(
        rect,
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, t_hi, n),
        rng.uniform(0.0, t_hi, n),
        rng.uniform(0.0, t_hi, n),
    )
    # Menus on the search's own coarse grid: allocations of 0 or 1, equal
    # prices and coincident constraints (a1 = 1 with t1 = tb, or a1 = 0
    # with tb - t1 = c1) all occur there, and random menus miss them.
    for grid_rect in (rect, Rectangle(0.0, 1.999998, 2.3220394, 1.0)):
        t_hi = grid_rect.z1_max + grid_rect.z2_max
        alloc = np.linspace(0.0, 1.0, 8)
        price = np.linspace(0.0, t_hi, 8)
        _assert_family_matches(
            grid_rect,
            rng.choice(alloc, 200),
            rng.choice(alloc, 200),
            rng.choice(price, 200),
            rng.choice(price, 200),
            rng.choice(price, 200),
        )
    # Allocations of 0, 1/2 and 1 against a few shared prices, so that every
    # exact tie occurs (t1 = t2, t1 = tb, t2 = tb and all three), on a
    # zero-offset support, a side ratio of 100 and the fault rectangle.
    for tie_rect in (
        Rectangle(0.0, 0.0, 1.0, 1.5),
        Rectangle(0.02, 0.3, 0.01, 1.0),
        Rectangle(0.0, 1.999998, 2.3220394, 1.0),
    ):
        t_hi = tie_rect.z1_max + tie_rect.z2_max
        alloc = (0.0, 0.5, 1.0)
        price = np.linspace(0.0, t_hi, 6)[1:5]
        menus = np.array(list(itertools.product(alloc, alloc, price, price, price)))
        _assert_family_matches(tie_rect, *menus.T)


@pytest.mark.parametrize("ratio, tol", [(1.0, 1e-12), (1e2, 1e-12), (1e4, 1e-9)])
def test_family_revenue_is_scale_invariant(ratio, tol):
    # Revenue scales with the support, to within tol of the revenue; below
    # 1e-3 of the top price a region is a sliver, whose area is only as
    # accurate as the lines that bound it, so the bound is taken there.
    rng = np.random.default_rng(11)
    for rect in (
        Rectangle(0.3, 0.2, 1.2, 0.8 * ratio),
        Rectangle(0.0, 0.0, 1.0, ratio),
        Rectangle(0.5 * ratio, 0.0, ratio, 1.0),
        Rectangle(0.0, 1.999998, 2.3220394 * ratio, 1.0),
    ):
        t_hi = rect.z1_max + rect.z2_max
        highs = (1.0, 1.0, t_hi, t_hi, t_hi)
        random_menus = [rng.uniform(0.0, hi, 300) for hi in highs]
        grid_menus = [rng.choice(np.linspace(0.0, hi, 8), 300) for hi in highs]
        a1, a2, t1, t2, tb = (np.concatenate(pair) for pair in zip(random_menus, grid_menus))
        base = _family_revenue(rect, a1, a2, t1, t2, tb)
        for lam in (1e-6, 1e-3, 1e3, 1e6):
            scaled = _family_revenue(rect.scaled(lam), a1, a2, lam * t1, lam * t2, lam * tb) / lam
            excess = np.abs(scaled - base) / (tol * np.maximum(np.abs(base), 1e-3 * t_hi))
            assert np.all(excess <= 1.0), (rect, lam, excess.max())


def _never():
    raise AssertionError("a branch no element takes was computed")


@pytest.mark.parametrize("value", [True, False])
def test_pick_calls_only_the_branch_a_uniform_mask_takes(value):
    taken = np.arange(3.0)
    for mask in (np.full(5, value), np.full((2, 3), value), np.array(value), np.bool_(value)):
        picked = _pick(mask, lambda: taken, _never) if value else _pick(mask, _never, lambda: taken)
        assert picked is taken


def test_pick_on_a_mixed_mask_is_the_eager_where():
    rng = np.random.default_rng(22)
    yes, no = rng.normal(size=(4, 1, 6)), rng.normal(size=(1, 5, 6))
    for mask in (rng.random((4, 5, 6)) < 0.5, np.arange(6) % 2 == 0, np.eye(6, dtype=bool)[:5]):
        picked = _pick(mask, lambda: yes, lambda: no)
        expected = np.where(mask, yes, no)
        assert picked.shape == expected.shape
        assert np.array_equal(picked, expected)


def _signed(rng, shape):
    # Normal values with signed zeros and NaNs, so that equal bytes are
    # a sharper test than equal values.
    values = rng.normal(size=shape)
    values.flat[::7] = -0.0
    values.flat[3::11] = np.nan
    return values


def test_pick_leaves_the_array_no_returns_untouched():
    # A scalar, an array of lower shape than the result, views (read-only
    # or not) and fresh arrays (writeable or not) that the caller keeps.
    rng = np.random.default_rng(24)
    mask = rng.random((4, 5, 6)) < 0.5
    yes, full = _signed(rng, (4, 5, 6)), _signed(rng, (4, 5, 6))
    frozen = full.copy()
    frozen.flags.writeable = False
    for no in (0.0, full[0].copy(), np.broadcast_to(full[0], full.shape), full[:], full.copy(), frozen):
        before = np.array(no, copy=True)
        picked = _pick(mask, lambda: yes, lambda: no)
        assert picked is not no
        assert picked.tobytes() == np.where(mask, yes, before).tobytes()
        assert np.array(no).tobytes() == before.tobytes()


def test_pick_calls_no_before_yes():
    # The nested branch is the no branch at every call site, so the flat
    # branch's result is not held while it runs.
    calls = []

    def branch(name, value):
        def call():
            calls.append(name)
            return np.full(6, value)

        return call

    _pick(np.arange(6) % 2 == 0, branch("yes", 1.0), branch("no", 0.0))
    assert calls == ["no", "yes"]


def _on_axes(rect, *grids):
    axes = [np.reshape(g, [-1 if d == i else 1 for d in range(5)]) for i, g in enumerate(grids)]
    return _family_revenue(rect, *axes)


@pytest.mark.parametrize(
    "rect",
    [
        Rectangle(0.3, 0.2, 1.2, 0.8),
        Rectangle(0.05, 0.05, 1.0, 1.0),
        Rectangle(0.0, 0.0, 1.0, 3.0),
        Rectangle(2.0, 0.1, 0.5, 1.0),
        Rectangle(0.0, 1.999998, 2.3220394, 1.0),
    ],
)
def test_an_item_no_type_chooses_moves_no_revenue(rect):
    # The search keeps the earliest of exactly tied menus, so menus that
    # differ only in an item nobody buys must score exactly alike: a lottery
    # dearer than the bundle, a bundle dearer than any value, and a lottery
    # at a_i = 1, which is the bundle at its own price.
    t_hi = rect.z1_max + rect.z2_max
    alloc = np.linspace(0.0, 1.0, 8)
    price = np.linspace(0.0, t_hi, 8)
    out = [2.0 * t_hi]
    rev = _on_axes(rect, alloc, alloc, price, price, price)
    lottery1 = _on_axes(rect, [0.0], alloc, out, price, price)
    lottery2 = _on_axes(rect, alloc, [0.0], price, out, price)
    for i in range(8):
        assert np.all(rev[:-1, :, i, :, :i] == lottery1[:, :, 0, :, :i])
        assert np.all(rev[:, :-1, :, i, :i] == lottery2[:, :, :, 0, :i])
        assert np.all(rev[-1:, :, i, :, i:] == lottery1[:, :, 0, :, i : i + 1])
        assert np.all(rev[:, -1:, :, i, i:] == lottery2[:, :, :, 0, i : i + 1])
    dear = _on_axes(rect, alloc, alloc, price, price, [1.5 * t_hi, 3.0 * t_hi])
    assert np.all(dear == _on_axes(rect, alloc, alloc, price, price, out))


def test_brute_force_tracks_the_solver():
    mech = solve(UNIT)
    menu, rev = brute_force_menu_search(UNIT, coarse=9, refine_rounds=4)
    gap = mech.revenue - rev
    assert abs(gap) <= 5e-3 * mech.revenue, f"search best {rev} vs solver {mech.revenue}"
    assert len(menu) <= 4
    assert rev == pytest.approx(expected_revenue(menu, UNIT), rel=1e-12)


#: The search's result on each kind's support in test_mirror.INSTANCES,
#: and the tb values its coarse sweep and two windows keep; kind A's
#: support is the first case of the frozen test.
FROZEN_BY_KIND = {
    K.B: (9.774900796616542, (5, 9, 9), [(0.42857142857142855, 1.0, 7.5982142857142865), (1.0, 1.0, 12.116071428571429)]),
    K.C: (4.118107120080175, (3, 5, 8), [(1.0, 1.0, 4.232142857142857)]),
    K.D: (3.1615646258503403, (3, 7, 9), [(0.10714285714285714, 1.0, 2.857142857142857), (1.0, 1.0, 3.392857142857143)]),
    K.E: (8.5576171875, (2, 8, 5), [(1.0, 1.0, 8.625)]),
    K.F: (1.5757699206062175, (6, 9, 9), [(1.0, 0.02232142857142857, 0.6964285714285714), (1.0, 1.0, 2.8392857142857144)]),
    K.G: (3.1615646258503403, (3, 7, 9), [(1.0, 0.10714285714285714, 2.857142857142857), (1.0, 1.0, 3.392857142857143)]),
    K.H: (8.5576171875, (2, 8, 5), [(1.0, 1.0, 8.625)]),
}


@pytest.mark.parametrize(
    "rect, revenue, kept, menu",
    [
        pytest.param(
            Rectangle(0.05, 0.05, 1.0, 1.0),
            0.6122314496701804,
            (5, 8, 9),
            [
                (0.1607142857142857, 1.0, 0.7687499999999999),
                (1.0, 0.1607142857142857, 0.7687499999999999),
                (1.0, 1.0, 0.8999999999999999),
            ],
            id="A",
        ),
        pytest.param(
            Rectangle(0.05068, 2.512, 1.267, 1.0),
            2.8481347666832733,
            (4, 9, 9),
            [(0.13392857142857142, 1.0, 2.587328571428571), (1.0, 1.0, 3.147916428571428)],
            id="E-verify-centre",
        ),
        pytest.param(
            Rectangle(0.0, 1.999998, 2.3220394, 1.0),
            2.5756298342869406,
            (4, 7, 9),
            [(0.12499999999999999, 1.0, 2.1383185982142856), (1.0, 1.0, 3.136200610714285)],
            id="c2-threshold",
        ),
        *[
            pytest.param(INSTANCES[kind], revenue, kept, menu, id=kind.value)
            for kind, (revenue, kept, menu) in FROZEN_BY_KIND.items()
        ],
    ],
)
def test_brute_force_frozen_outputs(monkeypatch, rect, revenue, kept, menu):
    # A scoring rule that breaks ties differently moves the refinement
    # window, and with it the menu the search ends on.  The first call
    # scores the coarse grid's pure-bundle line, eight menus, for the
    # floor; the coarse grid and each window then keep the tb values that
    # can reach their floor and are one block, which scores bit for bit as
    # the kernel that computes every branch everywhere, in the layout
    # (tb, a1, t1, a2, t2): in scan order (a1, a2, t1, t2, tb) the same
    # blocks take about 15% longer.
    blocks = []

    def checked(*args):
        rev = _family_revenue(*args)
        assert np.array_equal(rev, eager_family_revenue(*args)), args[0]
        blocks.append(rev.shape)
        return rev

    monkeypatch.setattr(oracle, "_family_revenue", checked)
    found, rev = brute_force_menu_search(rect, coarse=8, refine_rounds=2)
    assert blocks == [(8,), *((n, *(points,) * 4) for n, points in zip(kept, (8, 9, 9)))]
    assert rev == revenue
    assert found[0] == NULL_ITEM
    assert [(item.q1, item.q2, item.t) for item in found[1:]] == menu


def test_brute_force_frozen_outputs_at_the_defaults():
    # At coarse 16 the sweep splits a1 into 16 blocks.
    found, rev = brute_force_menu_search(Rectangle(0.0, 1.999998, 2.3220394, 1.0))
    assert rev == 2.5804364772223396
    assert [(item.q1, item.q2, item.t) for item in found] == [
        (0.0, 0.0, 0.0),
        (0.014583333333333334, 1.0, 2.0165532335937493),
        (1.0, 1.0, 3.1599597062499996),
    ]


@pytest.mark.parametrize(
    "rect, name, value",
    [
        pytest.param(rect, name, value, id=prefix + label)
        for prefix, rect in [("", Rectangle(0.05, 0.05, 1.0, 1.0)), ("fault-", Rectangle(0.0, 1.999998, 2.3220394, 1.0))]
        for name, value, label in [
            *[("_CHUNK", chunk, str(chunk)) for chunk in (1, 2 * 9**4 + 1, 4 * 9**4, 6 * 9**4)],
            ("_AXES", (0, 1, 2, 3, 4), "scan-order"),
            ("_AXES", oracle._AXES[::-1], "reversed-axes"),
        ]
    ],
)
def test_brute_force_blocks_keep_the_unsplit_result(monkeypatch, rect, name, value):
    # At coarse 9 every sweep holds nine a1 values, each of 9^3 menus for
    # every tb value it keeps: 6 and then 7 of 9 on the first support, 5
    # and then 9 on the fault support.  The default cap, 9^5, runs each
    # sweep as one block; 6 * 9^4, 4 * 9^4 and 2 * 9^4 + 1 split one or
    # both sweeps into two to five blocks, and a cap of 1 each into nine
    # of one a1 value.  Which branches a block computes depends on its own
    # menus, and a maximum tied across blocks must still resolve to the
    # earliest point.  A block laid out in any order of its axes must too.
    # The best score of a block ties 354 to 3,451 times in the first
    # support's coarse sweep, and 43 to 1,101 times in every sweep on the
    # fault support, whose grid holds equal allocations and coincident
    # constraints.
    split = brute_force_menu_search(rect, coarse=9, refine_rounds=1)
    monkeypatch.setattr(oracle, name, value)
    assert brute_force_menu_search(rect, coarse=9, refine_rounds=1) == split


@pytest.mark.parametrize("layout", [None, (0, 1, 2, 3, 4), (0, 4, 2, 3, 1)])
def test_brute_force_ties_keep_the_first_point_in_scan_order(monkeypatch, layout):
    # A score that ties every coarse point with a1 + tb / t_hi = 1: in scan
    # order (a1, a2, t1, t2, tb) the first is a1 = 0, tb = t_hi, and in the
    # block layout (tb, a1, t1, a2, t2) it would be tb = 0, a1 = 1.  The
    # floor, from the pure-bundle line a1 = 1, is the maximum 0, which
    # drops no tb value.  The first refinement window, scored after the
    # floor and the coarse grid, is centred on the point kept.
    if layout is not None:
        monkeypatch.setattr(oracle, "_AXES", layout)
    rect = Rectangle(0.05, 0.05, 1.0, 1.0)
    t_hi = rect.z1_max + rect.z2_max
    calls = []

    def tied(rect, a1, a2, t1, t2, tb):
        calls.append((a1, tb))
        score = -np.abs(np.rint(7.0 * a1) + np.rint(7.0 * tb / t_hi) - 7.0)
        return np.broadcast_to(score, np.broadcast_shapes(*map(np.shape, (a1, a2, t1, t2, tb))))

    monkeypatch.setattr(oracle, "_family_revenue", tied)
    brute_force_menu_search(rect, coarse=8, refine_rounds=1)
    a1, tb = calls[2]
    assert (a1.min(), tb.max()) == (0.0, t_hi)


@pytest.mark.parametrize("chunk", [None, 1, 3 * 8**4])
def test_brute_force_runs_the_fewest_even_blocks_under_the_cap(monkeypatch, chunk):
    # After the floor's eight menus, the coarse grid holds eight a1 values,
    # each of 8^3 menus for every tb value it keeps, and each window nine
    # of 9^3 for every tb value it keeps.  A block may pass the cap only to
    # hold one a1 value.
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    cap = oracle._CHUNK
    blocks = []

    def recorded(rect, a1, a2, t1, t2, tb):
        rev = _family_revenue(rect, a1, a2, t1, t2, tb)
        blocks.append((np.size(a1), np.size(tb), rev.size))
        return rev

    monkeypatch.setattr(oracle, "_family_revenue", recorded)
    brute_force_menu_search(Rectangle(0.05, 0.05, 1.0, 1.0), coarse=8, refine_rounds=2)
    assert blocks.pop(0) == (1, 8, 8)
    for values, points in [(8, 8), (9, 9), (9, 9)]:
        sweep = []
        while sum(n for n, _, _ in sweep) < values:
            sweep.append(blocks.pop(0))
        assert sum(n for n, _, _ in sweep) == values
        kept = sweep[0][1]
        assert 1 <= kept <= points and all(t == kept for _, t, _ in sweep), sweep
        per_value = kept * points**3
        assert all(menus == n * per_value <= max(cap, per_value) for n, _, menus in sweep), sweep
        assert max(n for n, _, _ in sweep) - min(n for n, _, _ in sweep) <= 1, sweep
        assert len(sweep) == -(-values // max(1, cap // per_value)), sweep
    assert not blocks


def test_a_coarse_maximum_on_the_pure_bundle_line_is_kept(monkeypatch):
    # A score of min(tb, t_hi / 2) on the pure-bundle line a1 = a2 = 1,
    # t1 = t2 = t_hi and 0 off it, so no menu earns more than tb: the
    # floor is the coarse maximum, first reached at tb = 4/7 t_hi, and the
    # search must still keep that point.
    rect = Rectangle(0.05, 0.05, 1.0, 1.0)
    t_hi = rect.z1_max + rect.z2_max

    def bundle_line(rect, a1, a2, t1, t2, tb):
        on = (a1 == 1.0) & (a2 == 1.0) & (t1 == t_hi) & (t2 == t_hi)
        score = np.where(on, np.minimum(tb, 0.5 * t_hi), 0.0)
        return np.broadcast_to(score, np.broadcast_shapes(*map(np.shape, (a1, a2, t1, t2, tb))))

    monkeypatch.setattr(oracle, "_family_revenue", bundle_line)
    menu, _ = brute_force_menu_search(rect, coarse=8, refine_rounds=0)
    assert menu == (NULL_ITEM, MenuItem(1.0, 1.0, float(np.linspace(0.0, t_hi, 8)[4])))


def test_a_menu_earns_at_most_its_bundle_price():
    # The bound the search's floor rests on, with the slack 1e-12 well
    # inside the search's 1e-9: an item dearer than the bundle is never
    # bought and its area is exactly 0, and the areas sum to the support.
    # Full coarse grids, a third with zero offsets, a third with offsets
    # up to 2 sides and a third with one offset up to 1e8 sides.
    rng = random.Random(3434)
    for i in range(90):
        b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        if i % 3 == 0:
            c1 = c2 = 0.0
        elif i % 3 == 1:
            c1, c2 = rng.uniform(0.0, 2.0) * b1, rng.uniform(0.0, 2.0) * b2
        else:
            far, near = log_uniform(rng, 1.0, 1e8), rng.uniform(0.0, 4.0)
            c1, c2 = (far * b1, near * b2) if i % 2 else (near * b1, far * b2)
        rect = Rectangle(c1, c2, b1, b2)
        t_hi = rect.z1_max + rect.z2_max
        grids = [np.linspace(0.0, 1.0, 8)] * 2 + [np.linspace(0.0, t_hi, 8)] * 3
        axes = np.ix_(*grids)
        assert np.all(_family_revenue(rect, *axes) <= axes[4] * (1.0 + 1e-12)), rect


def _search_peak(monkeypatch, *args):
    # Tracing starts at the first block: before it the search allocates
    # and frees 16 MiB that it never touches, which moves glibc's
    # thresholds and costs no page.
    def traced_from_the_first_block(*args):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return _family_revenue(*args)

    monkeypatch.setattr(oracle, "_family_revenue", traced_from_the_first_block)
    try:
        brute_force_menu_search(Rectangle(0.05, 0.05, 1.0, 1.0), *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_search_at_the_bench_setting_peaks_under_3_mib(monkeypatch):
    # Each window is one block of 9^5 menus; the traced peak measures
    # 2.78 MiB.
    assert _search_peak(monkeypatch, 8, 2) < 3 << 20


def test_a_search_at_the_defaults_peaks_under_4_5_mib(monkeypatch):
    # Blocks of one a1 value of 16^4 menus and windows of 9^5; the traced
    # peak measures 2.88 MiB.
    assert _search_peak(monkeypatch) < 4.5 * (1 << 20)


def _seeded_supports():
    # Sides in [0.3, 3] and offsets up to 2 sides, every fourth support
    # with both offsets zero.
    rng = random.Random(2121)
    for i in range(20):
        b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        c1, c2 = (0.0, 0.0) if i % 4 == 0 else (rng.uniform(0.0, 2.0) * b1, rng.uniform(0.0, 2.0) * b2)
        yield Rectangle(c1, c2, b1, b2)


SEEDED_SUPPORTS = tuple(_seeded_supports())


def test_brute_force_matches_the_eager_kernel_on_seeded_supports(monkeypatch):
    lazy = [brute_force_menu_search(rect, coarse=8, refine_rounds=1) for rect in SEEDED_SUPPORTS]
    monkeypatch.setattr(oracle, "_family_revenue", eager_family_revenue)
    assert [brute_force_menu_search(rect, coarse=8, refine_rounds=1) for rect in SEEDED_SUPPORTS] == lazy


@pytest.mark.parametrize("coarse, rounds", [(8, 2), (9, 1)])
@pytest.mark.parametrize(
    "rect",
    [
        *SEEDED_SUPPORTS,
        *VERIFY_CENTRES.values(),
        *(rect.swapped() for rect in VERIFY_CENTRES.values()),
        Rectangle(0.0, 1.999998, 2.3220394, 1.0),
    ],
    ids=[
        *(f"seeded-{i}" for i in range(len(SEEDED_SUPPORTS))),
        *VERIFY_CENTRES,
        *(f"{k}-swapped" for k in VERIFY_CENTRES),
        "fault",
    ],
)
def test_the_bundle_price_floor_changes_no_result(rect, coarse, rounds):
    # A search that scores every grid point finds the same menu and
    # revenue, bit for bit.
    assert brute_force_menu_search(rect, coarse, rounds) == unpruned_menu_search(rect, coarse, rounds)


@pytest.mark.parametrize(
    "rect", [Rectangle(0.3, 0.2, 1.2, 0.8), Rectangle(0.0, 1.999998, 2.3220394, 1.0)]
)
def test_family_revenue_on_axes_equals_the_flat_batch(rect):
    # The fault rectangle's coarse grid holds equal allocations and
    # coincident constraints.
    t_hi = rect.z1_max + rect.z2_max
    grids = [np.linspace(0.0, 1.0, 8)] * 2 + [np.linspace(0.0, t_hi, 8)] * 3
    axes = [g.reshape([-1 if d == i else 1 for d in range(5)]) for i, g in enumerate(grids)]
    flat = [m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")]
    on_axes = _family_revenue(rect, *axes)
    assert on_axes.shape == (8,) * 5
    assert np.array_equal(on_axes.reshape(-1), _family_revenue(rect, *flat))
    # Laid out in another order of the axes and transposed back, the
    # scores are the same bit for bit.
    for layout in (oracle._AXES, oracle._AXES[::-1], (2, 0, 4, 1, 3)):
        permuted = [g.reshape([-1 if d == dim else 1 for d in range(5)]) for g, dim in zip(grids, layout)]
        assert _family_revenue(rect, *permuted).transpose(layout).tobytes() == on_axes.tobytes(), layout


def test_brute_force_is_deterministic():
    first = brute_force_menu_search(UNIT, coarse=8, refine_rounds=1)
    second = brute_force_menu_search(UNIT, coarse=8, refine_rounds=1)
    assert first == second


_SECOND_SEARCH_FAULTS = """
import resource, sys
from optmech import Rectangle, brute_force_menu_search
rect = Rectangle(0.05, 0.05, 1.0, 1.0)
coarse, rounds = map(int, sys.argv[1:])
brute_force_menu_search(rect, coarse=coarse, refine_rounds=rounds)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
brute_force_menu_search(rect, coarse=coarse, refine_rounds=rounds)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("coarse, rounds, limit", [(8, 2, 300), (16, 4, 3000)])
def test_a_repeated_search_reuses_its_memory(coarse, rounds, limit):
    # Without the search's raised malloc thresholds every block faults its
    # temporaries in again: about 2,800 minor faults a search at coarse 8
    # with 2 rounds and 36,000 at the defaults; with them, about none.  A
    # fresh interpreter keeps other tests' allocations out of the count.
    src = Path(optmech.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _SECOND_SEARCH_FAULTS, str(coarse), str(rounds)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(out.stdout) < limit


def test_brute_force_validates_arguments():
    with pytest.raises(ValueError):
        brute_force_menu_search(UNIT, coarse=7)
    with pytest.raises(ValueError):
        brute_force_menu_search(UNIT, refine_rounds=-1)


@pytest.mark.parametrize(
    "rect",
    [
        Rectangle(0.05, 0.05, 1.0, 1.0),
        Rectangle(2.0, 2.0, 1.0, 1.0),
        Rectangle(0.2, 2.8, 1.0, 1.0),
        Rectangle(0.5, 8.0, 1.0, 1.0),
        Rectangle(0.0, 0.3, 1.0, 1.0),
        Rectangle(4.0, 4.0, 12.0, 3.0),
        # a kind-D shuffle moment of 1.2e-10 in units of length, 1e-16 of b1
        Rectangle(0.1961141333496032, 6.696083292540371, 1.3664011908020086, 2.4624536816601164).scaled(1e6),
        # kind C at offsets of about 1e3 times the side, and at scale 1e6:
        # an absolute price step read foc_gradient 0.0104 and 0.0019 here
        Rectangle(1409.1635042357966, 7733.1996084983975, 1.0258055948089735, 2.4644675094255306),
        Rectangle(6463628.146326032, 11124341.077739464, 1618774.7786026897, 2847341.18636387),
        # kind B on a side of 1e-12: a vertex merge within an absolute
        # 1e-12 collapsed every region, and the polygon revenue read 0
        Rectangle(0.19324648953535836, 3.1321223466675933e-15, 1.0, 1e-12),
        Rectangle(0.0, 8.97219307266494e-15, 1.0, 1e-12),
        # kind B within about 1e-9 of c2 = 2 b2 at c1 = 0: the null region
        # is a strip about 1e-9 of b2 high, and the corner atom and bottom
        # edge within 1e-9 of the shorter side were counted in the lottery
        Rectangle(0.0, 7.779404729562186, 0.629243167580435, 3.889702366214491),
        Rectangle(4.453189457008215e-13, 8.501788287888397, 0.12601903021855934, 4.2508941453673685),
        # kind D with p_a1 about 1e-12 of t, and kind C at offsets of 4e3
        # and 700 sides: the net prices read off the gross ones put mu_Z
        # at 9.6e-6 and -1.1e-9 on the first two, and 3.6e-10 on the third
        Rectangle(1.5536730619637149e-12, 3.8522962312565223, 0.5926851248379942, 1.9261481156330045),
        Rectangle(10081.306426087376, 16.052995870051948, 2.5949114220639355, 1.2147781820893797),
        Rectangle(1052.7677729869667, 0.4279577862441265, 1.4558992998853963, 0.11516285140571267),
    ],
)
def test_certificate_passes_on_solved_instances(rect):
    mech = solve(rect)
    report = certificate_check(mech, rect)
    assert report.passed, f"{rect}: failures {report.failures}"
    assert abs(report.mu_D) <= 1e-12
    assert abs(report.mu_W) <= 1e-9
    assert report.shuffle_mass <= 1e-10
    assert report.shuffle_moment <= 1e-10


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-3, 1e3, 1e6, 1e9])
def test_certificate_verdict_does_not_move_with_scale(lam):
    # regions lie on the unit square, region masses are dimensionless, each
    # shuffle moment is judged over its side, and stationarity runs on
    # prices over b1 + b2, so supports that certify at scale 1 certify at
    # every scale
    rng = random.Random(1606)
    failed = []
    for _ in range(40):
        b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        c1 = b1 * 10.0 ** rng.uniform(-2.0, math.log10(4.0))
        c2 = b2 * 10.0 ** rng.uniform(-2.0, math.log10(4.0))
        rect = Rectangle(c1, c2, b1, b2).scaled(lam)
        report = certificate_check(solve(rect), rect)
        if not report.passed:
            failed.append((rect, report.failures))
    assert not failed, f"{len(failed)} of 40 fail, first {failed[0]}"


@pytest.mark.parametrize("kind", ["D", "G"])
def test_search_and_certificate_far_from_unit_size_are_the_unit_ones_scaled(kind):
    # both run at unit size there; unscaled, the search overflowed at 4^200
    # and its revenue moved off the scaled one at 4^-200, and the
    # certificate raised OverflowError at 4^200
    rect = VERIFY_CENTRES[kind]
    menu, revenue = brute_force_menu_search(rect, coarse=8, refine_rounds=1)
    report = certificate_check(solve(rect), rect, oracle_gap=solve(rect).revenue - revenue)
    assert report.passed
    for j in (200, -200):
        lam = 4.0**j
        big_menu, big_revenue = brute_force_menu_search(rect.scaled(lam), coarse=8, refine_rounds=1)
        assert big_menu == tuple(replace(item, t=lam * item.t) for item in menu)
        assert big_revenue == lam * revenue
        mech = solve(rect).scaled(lam)
        big_report = certificate_check(mech, rect.scaled(lam), oracle_gap=lam * report.oracle_gap)
        assert big_report == replace(
            report, revenue_gap=lam * report.revenue_gap, oracle_gap=lam * report.oracle_gap
        )


def test_certificate_total_measure_tolerance_scales_with_offsets():
    # the whole-support measure is zero exactly; its terms add up to a
    # total variation of 6 + 2 (c1/b1 + c2/b2), about 3e4 to 4e4 here, and
    # the computed value is their rounding: 0 on the first support (it read
    # -2.25e-12 while the measure was summed in z), 1.8e-12 on the second
    mu_d = []
    for rect in (
        Rectangle(0.2839449830311523, 4561.57733837128, 0.28687336841713984, 0.23766270878662552),
        Rectangle(0.3705064097153099, 2037.5521935294032, 1.6072798827393497, 0.12438187920998209),
    ):
        mech = solve(rect)
        assert mech.kind is StructureKind.E
        report = certificate_check(mech, rect)
        assert report.passed, f"{rect}: failures {report.failures}"
        mu_d.append(report.mu_D)
    assert mu_d[0] == 0.0
    assert abs(mu_d[1]) > 1e-12


#: An own-axis offset of 1e-12 (kind B with a lottery weight of about
#: 1e-12, next to the flat price of a zero offset), and its F mirror.
SNAPPED_OFFSETS = (
    Rectangle(1e-12, 0.0, 4.32577161455233, 0.646798625626365),
    Rectangle(0.0, 1e-12, 0.48768954745466575, 2.4021752207089593),
)


@pytest.mark.parametrize("rect", SNAPPED_OFFSETS)
def test_certificate_treats_snapped_offsets_as_zero(rect):
    mech = solve(rect)
    assert mech.kind is (StructureKind.B if rect.c1 > 0.0 else StructureKind.F)
    report = certificate_check(mech, rect)
    assert report.passed, f"{rect}: failures {report.failures}"
    assert report.shuffle_mass <= 1e-10
    assert report.shuffle_moment <= 1e-10


@pytest.mark.parametrize("rect", SLIVER_SUPPORTS)
def test_certificate_passes_where_the_null_region_is_a_sliver(rect):
    # the null region is a triangle about 1e-11 of a side high at the
    # corner: it alone holds the corner and its hypotenuse lies on no
    # side, so the lottery region beside it takes neither the atom nor
    # the bottom or left side's density
    mech = solve(rect)
    assert mech.kind in (K.D, K.G)
    report = certificate_check(mech, rect)
    assert report.passed, f"failures {report.failures}, mu_A {report.mu_A}, mu_B {report.mu_B}"


def _exact_reference_supports() -> list[Rectangle]:
    # the pinned slivers, the pinned side-ratio supports at every scale,
    # and 100 seeded supports with sides 0.3..3 and offsets 0 or
    # 1e-3..1e4 sides
    rng = random.Random(2)
    seeded = []
    for _ in range(100):
        b1, b2 = (log_uniform(rng, 0.3, 3.0) for _ in range(2))
        c1, c2 = (0.0 if rng.random() < 0.2 else log_uniform(rng, 1e-3, 1e4) * b for b in (b1, b2))
        seeded.append(Rectangle(c1, c2, b1, b2))
    ratios = [rect.scaled(lam) for rect in RATIO_SUPPORTS for lam in (1.0, 1e-6, 1e-3, 1e3, 1e6)]
    return [*SLIVER_SUPPORTS, *ratios, *seeded]


def test_region_masses_match_the_exact_reference():
    # each float region mass lies within 1e-14 of the offsets factor of
    # the same region's mass in rational arithmetic (5.2e-16 at worst; the
    # side densities reach 1e4 here, and 1e-12 alone misses by 1.4e-12 on
    # a seeded support with c2 = 6,900 b2), and the region checks read the
    # same verdict
    for rect in _exact_reference_supports():
        mech = solve(rect)
        report = certificate_check(mech, rect)
        exact = exact_region_masses(rect, mech.menu, mech.net_prices)
        offsets = 1.0 + rect.c1 / rect.b1 + rect.c2 / rect.b2
        bound = min(oracle.REGION_TOL_REL, oracle.REGION_TOL_OFFSETS * offsets)
        for key, mass in exact.items():
            name = f"mu_{key}"
            assert abs(Fraction(getattr(report, name)) - mass) <= 1e-14 * offsets, (rect, name, float(mass))
            assert (name in report.failures) == (abs(mass) > bound), (rect, name, float(mass))


CERTIFIED = [*VERIFY_CENTRES.values(), *(rect.swapped() for rect in VERIFY_CENTRES.values())]


@pytest.mark.parametrize("rect", CERTIFIED, ids=[*VERIFY_CENTRES, *(f"{k}-swapped" for k in VERIFY_CENTRES)])
def test_certificate_reads_only_the_menu(rect):
    # the verdict and every value come from the menu, its net prices, the
    # revenue and the support: neither the solver's parameters nor its kind
    mech = solve(rect)
    report = certificate_check(mech, rect)
    assert report.passed, report.failures
    assert certificate_check(replace(mech, params=None), rect) == report
    other = next(k for k in K if k is not mech.kind)
    assert certificate_check(replace(mech, kind=other), rect) == report


@pytest.mark.parametrize("rect", CERTIFIED, ids=[*VERIFY_CENTRES, *(f"{k}-swapped" for k in VERIFY_CENTRES)])
def test_certificate_judges_an_in_window_support_as_given(monkeypatch, rect):
    # only unit_scale's branch makes a support or a menu in another frame
    def refuse(self, lam):
        raise AssertionError(f"{type(self).__name__}.scaled({lam!r}) on a support in the window")

    mech = solve(rect)
    monkeypatch.setattr(Rectangle, "scaled", refuse)
    monkeypatch.setattr(optmech.Mechanism, "scaled", refuse)
    assert certificate_check(mech, rect).passed


@pytest.mark.parametrize("rect", [Rectangle(0.5, 1e300, 1.0, 1e-10), Rectangle(0.5, 1e300, 1.0, 1e-9)])
def test_certificate_refuses_offsets_that_overflow_the_measure(rect):
    # c2/b2 overflows, so the transformed measure's line densities and
    # its masses would read NaN: the support is refused, as is its mirror
    for support in (rect, rect.swapped()):
        with pytest.raises(UnitSizeOverflow, match="offsets"):
            certificate_check(solve(support), support)


#: Supports whose area b1 b2 is subnormal at the size they run at: as
#: given, with b1 + b2 in the window, or at unit size.
SUBNORMAL_AREAS = [
    *(Rectangle(0.0, 0.0, 1.0, b2) for b2 in (1e-308, 1e-310, 1e-315, 5e-324)),
    Rectangle(0.0, 0.0, 1e13, 1e-300),
    Rectangle(1.2515227201268504e241, 9.896124836408601, 5.410344535815978, 5e-324),
]


@pytest.mark.parametrize("rect", SUBNORMAL_AREAS)
def test_every_entry_point_refuses_a_subnormal_area(rect):
    # there the solver's coefficients lose digits: at b2 = 1e-315 it read
    # revenue 0.2499999987648359 on (0, 0, 1, b2), and the verifier failed
    # six checks of that menu, so no entry point runs such a support
    for support in (rect, rect.swapped()):
        for run in (
            lambda: solve(support),
            lambda: brute_force_menu_search(support, coarse=8, refine_rounds=0),
            lambda: certificate_check(solve(UNIT), support),
        ):
            with pytest.raises(UnitSizeOverflow, match="subnormal area"):
                run()


def test_certificate_fails_a_value_that_is_nan(monkeypatch):
    # a comparison with NaN is false, so each check is written to fail on it
    rect = VERIFY_CENTRES["A"]
    mech = solve(rect)
    monkeypatch.setattr(oracle.MuBar, "moments", lambda self, poly: (math.nan,) * 3)
    report = certificate_check(mech, rect)
    assert math.isnan(report.mu_D) and math.isnan(report.mu_W)
    assert {"mu_D", "mu_W"} <= set(report.failures)
    assert not report.passed


def test_certificate_fails_a_nan_shuffle_deviation(monkeypatch):
    # a NaN shuffle mass or moment stays the largest deviation
    rect = VERIFY_CENTRES["A"]
    mech = solve(rect)
    monkeypatch.setattr(oracle.Shuffle, "mass", lambda self: math.nan)
    monkeypatch.setattr(oracle.Shuffle, "first_moment", lambda self: math.nan)
    report = certificate_check(mech, rect)
    assert math.isnan(report.shuffle_mass) and math.isnan(report.shuffle_moment)
    assert {"shuffle_mass", "shuffle_moment"} <= set(report.failures)


def _moved_lottery(mech, rect, a=None, net=None):
    # the mechanism with its (a1, 1) lottery's weight or net price moved
    # and its price t moved with them
    (i,) = [i for i, it in enumerate(mech.menu) if it.q2 == 1.0 and 0.0 < it.q1 < 1.0]
    a = mech.menu[i].q1 if a is None else a
    net = mech.net_prices[i] if net is None else net
    menu = (*mech.menu[:i], MenuItem(a, 1.0, net + (a * rect.c1 + rect.c2)), *mech.menu[i + 1 :])
    nets = (*mech.net_prices[:i], net, *mech.net_prices[i + 1 :])
    return replace(mech, menu=menu, net_prices=nets)


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_shuffles_move_with_the_menu_not_the_parameters(kind):
    rect = VERIFY_CENTRES[kind]
    mech = solve(rect)
    report = certificate_check(mech, rect)
    (i,) = [i for i, it in enumerate(mech.menu) if it.q2 == 1.0 and 0.0 < it.q1 < 1.0]
    for moved in (
        _moved_lottery(mech, rect, a=mech.menu[i].q1 * (1.0 + 1e-3)),
        _moved_lottery(mech, rect, net=mech.net_prices[i] * (1.0 + 1e-3)),
    ):
        moved_report = certificate_check(moved, rect)
        assert "price_form" not in moved_report.failures
        assert moved_report.shuffle_mass != report.shuffle_mass
        assert moved_report.shuffle_moment != report.shuffle_moment
    if kind == "A":
        # m1 is a parameter the menu does not hold: moving it moves nothing
        params = replace(mech.params, m1=mech.params.m1 * (1.0 + 1e-3))
        assert certificate_check(replace(mech, params=params), rect) == report


@pytest.mark.parametrize("kind", ["B", "F"])
def test_certificate_refuses_an_item_it_cannot_judge(kind):
    # an item off (0, 0), (1, 1), (a, 1) and (1, a) has neither a region
    # mass nor a shuffle, so the certificate would pass over it unseen:
    # here the lottery (a, 1), or (1, a) on the swapped support, with its
    # 1 moved to 0.999999
    rect = VERIFY_CENTRES[kind]
    mech = solve(rect)
    (i,) = [i for i, it in enumerate(mech.menu) if not it.is_null and not it.is_bundle]
    lottery = mech.menu[i]
    item = MenuItem(min(lottery.q1, 0.999999), min(lottery.q2, 0.999999), lottery.t)
    menu = (*mech.menu[:i], item, *mech.menu[i + 1 :])
    assert best_response_regions(rect, menu)[i].area() > 0.1, "buyers take the item"
    with pytest.raises(oracle.UncertifiedItem, match="no certificate judges"):
        certificate_check(replace(mech, menu=menu, net_prices=None), rect)
    assert issubclass(oracle.UncertifiedItem, ValueError)
    # an item with the null allocation is judged with the exclusion region
    priced_null = replace(mech, menu=(*mech.menu, MenuItem(0.0, 0.0, 0.5)), net_prices=None)
    assert certificate_check(priced_null, rect).mu_Z == certificate_check(replace(mech, net_prices=None), rect).mu_Z


def test_certificate_rejects_perturbed_price():
    mech = solve(UNIT)
    bundle_idx = next(i for i, it in enumerate(mech.menu) if it.is_bundle)
    item = mech.menu[bundle_idx]
    bad_menu = mech.menu[:bundle_idx] + (replace(item, t=item.t + 0.01),) + mech.menu[bundle_idx + 1 :]
    bad = replace(mech, menu=bad_menu)
    # the record's nets no longer price the edited menu; the regions stay
    # those of the nets, and the stationarity reads the edited prices
    report = certificate_check(bad, UNIT)
    assert not report.passed
    assert "price_form" in report.failures
    assert "foc_gradient" in report.failures
    # the edited menu alone, its nets read off its prices, moves the
    # bundle's region off the certificate's
    report = certificate_check(replace(bad, net_prices=None), UNIT)
    assert not report.passed
    assert "foc_gradient" in report.failures
    assert "mu_W" in report.failures


@pytest.mark.parametrize("name", list(VERIFY_CENTRES))
def test_certificate_names_mu_d_when_the_measure_total_is_off(monkeypatch, name):
    # mu_D reads no menu: only the transformed measure's total, which is
    # zero up to rounding; a total off by 1e-9 fails it and nothing else
    rect = VERIFY_CENTRES[name]
    mech = solve(rect)
    assert certificate_check(mech, rect).passed

    class OffTotal(MuBar):
        def total(self):
            return super().total() + 1e-9

    monkeypatch.setattr(oracle, "MuBar", OffTotal)
    report = certificate_check(mech, rect)
    assert report.failures == ("mu_D",)
    assert report.mu_D == pytest.approx(1e-9, abs=1e-15)


def test_certificate_names_shuffle_sign_for_a_negative_atom():
    # the kind-B lottery (a, 1) at c1 > 0 priced to a net of 1.1 b2: its
    # shuffle's atom c1 (b2 - net) / (b1 b2) is negative; the bundle's net
    # is raised to 1.5 b2, under which some types still buy the lottery
    rect = VERIFY_CENTRES["B"]
    assert rect.c1 > 0.0
    moved = _moved_lottery(solve(rect), rect, net=1.1 * rect.b2)
    menu = (*moved.menu[:-1], MenuItem(1.0, 1.0, 1.5 * rect.b2 + rect.c1 + rect.c2))
    assert menu[-2].q2 == 1.0 and best_response_regions(rect, menu)[-2].area() > 0.0
    report = certificate_check(replace(moved, menu=menu, net_prices=None), rect)
    assert "shuffle_sign" in report.failures


@pytest.mark.parametrize("kind", ["E", "H"])
def test_certificate_names_shuffle_sign_for_a_single_good_priced_above_its_floor(kind):
    # kind E sells good 2 at its lowest value c2, a net of 0, whose shuffle
    # is the two-step one; at a net above 0 it is a flat ramp of density
    # (2 b2 - c2 - 3 net) / (b1 b2) < 0 that ends the segment, where the
    # sign pattern asks for a density of at least 0 (kind H: the mirror)
    rect = VERIFY_CENTRES["E"] if kind == "E" else VERIFY_CENTRES["E"].swapped()
    mech = solve(rect)
    assert mech.kind is K(kind) and not mech.menu[0].is_bundle
    menu = (replace(mech.menu[0], t=mech.menu[0].t * (1.0 + 1e-9)), *mech.menu[1:])
    report = certificate_check(replace(mech, menu=menu, net_prices=None), rect)
    assert "shuffle_sign" in report.failures


@pytest.mark.parametrize("i, names", [(1, {"mu_Z", "mu_A", "mu_W", "shuffle_mass", "shuffle_moment"}), (2, {"mu_B"})])
def test_certificate_names_the_region_and_shuffle_checks_for_a_raised_price(i, names):
    # the kind-A lottery i priced 1e-7 above its optimum gives types to the
    # exclusion and bundle regions, and its shuffle no longer balances
    rect = VERIFY_CENTRES["A"]
    mech = solve(rect)
    item = mech.menu[i]
    menu = (*mech.menu[:i], replace(item, t=item.t * (1.0 + 1e-7)), *mech.menu[i + 1 :])
    report = certificate_check(replace(mech, menu=menu, revenue=expected_revenue(menu, rect), net_prices=None), rect)
    assert names <= set(report.failures), report.failures


@pytest.mark.parametrize("kind", ["A", "B"])
def test_certificate_does_not_judge_an_item_no_type_buys(kind):
    # a lottery dearer than the bundle is bought by no type: it adds no
    # mass and no shuffle, and the menu is the same mechanism
    rect = VERIFY_CENTRES[kind]
    mech = replace(solve(rect), net_prices=None)
    longer = replace(mech, menu=(*mech.menu, MenuItem(1.0, 0.3, 50.0)))
    assert best_response_regions(rect, longer.menu)[-1].is_empty
    report = certificate_check(longer, rect)
    assert report.passed, report.failures
    assert report == certificate_check(mech, rect)


def test_certificate_fails_separate_selling_on_a_kind_a_support():
    # each good at its monopoly price (c + b)/2 and both at the sum: the
    # bundle sells at a discount in the optimum, so every region and
    # shuffle check and the gradient fail
    rect = VERIFY_CENTRES["A"]
    price = 0.5 * (rect.c1 + rect.b1)
    assert rect.c1 == rect.c2 and rect.b1 == rect.b2
    menu = (NULL_ITEM, MenuItem(1.0, 0.0, price), MenuItem(0.0, 1.0, price), MenuItem(1.0, 1.0, 2.0 * price))
    mech = replace(solve(rect), menu=menu, revenue=expected_revenue(menu, rect), net_prices=None)
    report = certificate_check(mech, rect)
    assert report.failures == (
        "mu_Z", "mu_A", "mu_B", "mu_W", "shuffle_mass", "shuffle_moment", "shuffle_sign", "foc_gradient",
    )
    assert mech.revenue < solve(rect).revenue


def test_certificate_names_foc_curvature_for_a_price_off_a_kink():
    # kind E sells good 2 at its lowest value c2; priced 1e-3 above it, the
    # revenue falls in that price and is convex there, as at no maximum
    rect = Rectangle(0.0, 3.75, 0.06, 1.0)
    mech = solve(rect)
    assert mech.kind is K.E and mech.menu[0] == MenuItem(0.0, 1.0, 3.75)
    menu = (replace(mech.menu[0], t=3.75 * (1.0 + 1e-3)), *mech.menu[1:])
    report = certificate_check(replace(mech, menu=menu, revenue=expected_revenue(menu, rect), net_prices=None), rect)
    assert "foc_curvature" in report.failures


def test_certificate_oracle_gap_logic():
    mech = solve(UNIT)
    shortfall = certificate_check(mech, UNIT, oracle_gap=0.1)
    assert "oracle_gap_shortfall" in shortfall.failures
    beaten = certificate_check(mech, UNIT, oracle_gap=-0.1)
    assert "oracle_gap_beaten" in beaten.failures
    tiny = certificate_check(mech, UNIT, oracle_gap=1e-6)
    assert tiny.passed
    assert tiny.oracle_gap == 1e-6


@pytest.mark.parametrize("lam", [1e-15, 1e-13, 1.0, 1e6])
def test_certificate_oracle_gap_is_judged_relative_at_every_scale(lam):
    # revenue scales with the support, so a gap of 1% of it fails either
    # way at every scale, and the search's own gap (about 0.0011 of the
    # revenue here) passes
    rect = Rectangle(0.05, 0.05, 1.0, 1.0).scaled(lam)
    mech = solve(rect)
    shortfall = certificate_check(mech, rect, oracle_gap=0.01 * mech.revenue)
    assert "oracle_gap_shortfall" in shortfall.failures
    beaten = certificate_check(mech, rect, oracle_gap=-0.01 * mech.revenue)
    assert "oracle_gap_beaten" in beaten.failures
    _, best = brute_force_menu_search(rect, coarse=8, refine_rounds=2)
    report = certificate_check(mech, rect, oracle_gap=mech.revenue - best)
    assert report.passed, report.failures


def _revenue_form_supports(n):
    # seeded supports in every phase region: anywhere, with zero offsets,
    # within 1e-14..1e-2 of the SmallSmall, VeryLarge and c1 = b1
    # thresholds, and small offsets where kind A lives; half swapped; and
    # five supports at scales 1e-6 and 1e6 and side ratio 1e12
    rng = random.Random(20261018)
    rects = []
    for k in range(n):
        b1, b2 = math.exp(rng.uniform(-1.6, 1.6)), math.exp(rng.uniform(-1.6, 1.6))
        near = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -2.0)
        mode = k % 6
        if mode == 0:
            c1, c2 = rng.uniform(0.0, 5.0) * b1, rng.uniform(0.0, 5.0) * b2
        elif mode == 1:
            c1, c2 = 0.0, rng.choice((0.0, rng.uniform(0.0, 3.0) * b2))
        elif mode == 2:
            c1 = rng.choice((0.0, rng.uniform(0.0, 1.0) * b1))
            c2 = 2.0 * b2 * (b1 + c1) / (b1 + 3.0 * c1) * near
        elif mode == 3:
            c1 = rng.uniform(0.0, 0.95) * b1
            c2 = 2.0 * b2 * (b1 / (b1 - c1)) ** 2 * near
        elif mode == 4:
            c1, c2 = b1 * near, rng.uniform(0.0, 5.0) * b2
        else:
            c1, c2 = rng.uniform(0.0, 0.09) * b1, rng.uniform(0.0, 0.09) * b2
        rect = Rectangle(c1, c2, b1, b2)
        rects.append(rect if k % 2 else rect.swapped())
    # the check is relative to the revenue, so it holds at any scale, and
    # the polygons are clipped on the support as given, at any side ratio
    return rects + [
        Rectangle(0.05, 0.05, 1.0, 1.0).scaled(1e-6),
        Rectangle(0.2, 2.8, 1.0, 1.0).scaled(1e6),
        Rectangle(0.0, 0.3, 1e12, 1.0),
        Rectangle(3e11, 0.2, 1e12, 1.0),
        Rectangle(1e-6, 0.0, 1.0, 1e12),
    ]


def _net_placed_revenue(mech, rect):
    """Each price times the area of the region the record's nets place."""
    regions = best_response_regions(rect, mech.menu, mech.net_prices)
    return sum(item.t * region.area() for item, region in zip(mech.menu, regions))


def test_closed_form_revenue_matches_the_polygon_revenue_of_the_menu():
    kinds = set()
    for rect in _revenue_form_supports(300):
        mech = solve(rect)
        kinds.add(mech.kind)
        report = certificate_check(mech, rect)
        assert "revenue_form" not in report.failures, (rect, report.revenue_gap)
        assert report.revenue_gap == mech.revenue - _net_placed_revenue(mech, rect)
    assert kinds == set(StructureKind)


def test_the_revenue_gap_prices_the_regions_the_record_nets_place():
    # at a tiny c1 and a large c2 the bundle's net read off its price,
    # t - c1 - c2, is 6e-13 off the record's (b1 - c1)/2, and the regions
    # it places earn 1.8e-12 more than the menu does over the regions
    # whose masses the certificate integrates
    rect = Rectangle(3.920487680610407e-14, 12992.16411809329, 2.297726151797813, 2.7902774909966257)
    mech = solve(rect)
    assert mech.kind is StructureKind.E
    assert net_prices(rect, mech.menu) != mech.net_prices
    report = certificate_check(mech, rect)
    assert report.revenue_gap == mech.revenue - _net_placed_revenue(mech, rect) == 0.0
    assert mech.revenue - expected_revenue(mech.menu, rect) != 0.0
    assert report.passed, report.failures


def test_certificate_rejects_a_revenue_the_menu_does_not_earn():
    for rect in (UNIT, Rectangle(0.2, 2.8, 1.0, 1.0), Rectangle(2.8, 0.2, 1.0, 1.0)):
        mech = solve(rect)
        assert "revenue_form" not in certificate_check(mech, rect).failures
        bad = replace(mech, revenue=mech.revenue * (1.0 + 1e-9))
        report = certificate_check(bad, rect)
        assert "revenue_form" in report.failures
        assert report.revenue_gap == pytest.approx(1e-9 * mech.revenue, rel=1e-3)


def test_price_gradient_equals_negative_region_measure():
    # dR/dt_bundle = -mu(W) for any bundle price, not only at the optimum
    rect = Rectangle(0.05, 0.05, 1.0, 1.0)
    mech = solve(rect)
    bundle_idx = next(i for i, it in enumerate(mech.menu) if it.is_bundle)
    item = mech.menu[bundle_idx]
    menu = mech.menu[:bundle_idx] + (replace(item, t=item.t + 0.01),) + mech.menu[bundle_idx + 1 :]
    fd = price_gradient(menu, rect, bundle_idx)
    regions = best_response_regions(rect, menu)
    w_mass = MuBar(rect).mass(regions[bundle_idx])
    assert fd == pytest.approx(-w_mass, abs=5e-6), f"FD {fd} vs -measure {-w_mass}"


def test_local_max_check_accepts_optimum_rejects_interior_slope():
    mech = solve(UNIT)
    assert local_max_check(mech.menu, UNIT, 1e-3)
    underpriced = (NULL_ITEM, MenuItem(1.0, 1.0, 0.5))
    assert not local_max_check(underpriced, UNIT, 1e-3), "revenue rises with the price at t=0.5"
    with pytest.raises(ValueError):
        local_max_check(mech.menu, UNIT, 0.5)
