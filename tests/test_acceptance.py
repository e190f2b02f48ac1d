"""Acceptance gate: one test per pinned criterion, one PASS/FAIL line each.

Each failure message states the expected value next to the computed one.
"""

import math
import time

import numpy as np

from helpers import local_max_check, revenue_monotonicity_check, utility
from optmech import cli
from optmech.measures import MuBar
from optmech.mechanism import expected_revenue
from optmech.oracle import brute_force_menu_search, certificate_check
from optmech.solver import PhaseRegion, classify, solve
from optmech.types import Rectangle, StructureKind

MIRROR_KIND = {"A": "A", "B": "F", "C": "C", "D": "G", "E": "H", "F": "B", "G": "D", "H": "E"}


def _announce(number: int, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE CRITERION {number}: {status}")
    assert not problems, f"criterion {number}: " + " | ".join(problems)


def _oracle_gap(rect: Rectangle, revenue: float) -> float:
    _, best = brute_force_menu_search(rect, coarse=9, refine_rounds=4)
    return revenue - best


def test_criterion_1_unit_square_closed_form():
    problems = []
    rect = Rectangle(0.0, 0.0, 1.0, 1.0)
    mech = solve(rect)
    if mech.kind is not StructureKind.A:
        problems.append(f"expected kind A, got {mech.kind.name}")
    single_prices = [item.t for item in mech.menu if not item.is_null and not item.is_bundle]
    for t in single_prices:
        if abs(t - 2.0 / 3.0) > 1e-12:
            problems.append(f"single-lottery price {t!r} != 2/3 within 1e-12")
    bundle = max(item.t for item in mech.menu)
    target = (4.0 - math.sqrt(2.0)) / 3.0
    if abs(bundle - target) > 1e-10:
        problems.append(f"bundle price {bundle!r} != (4-sqrt(2))/3 within 1e-10")
    times = []
    for _ in range(7):
        start = time.perf_counter()
        solve(rect)
        times.append(time.perf_counter() - start)
    best = min(times)
    if best >= 0.010:
        problems.append(f"solve took {best * 1e3:.2f} ms, budget is 10 ms")
    _announce(1, problems)


def test_criterion_2_wide_zero_corner_bundle_price():
    problems = []
    mech = solve(Rectangle(0.0, 0.0, 3.0, 1.0))
    bundle = max(item.t for item in mech.menu)
    if abs(bundle - 11.0 / 6.0) > 1e-10:
        problems.append(f"bundle price {bundle!r} != 11/6 within 1e-10")
    _announce(2, problems)


def test_criterion_3_diagonal_instances_with_certificates():
    problems = []
    # The lottery items merge into the bundle where a1 reaches 1, near c = 0.0766:
    # two lotteries plus a bundle below that offset, pure bundling above it.
    for c, kind in (
        (0.02, StructureKind.A),
        (0.05, StructureKind.A),
        (0.076, StructureKind.A),
        (0.077, StructureKind.C),
    ):
        start = time.perf_counter()
        rect = Rectangle(c, c, 1.0, 1.0)
        mech = solve(rect)
        gap = _oracle_gap(rect, mech.revenue)
        report = certificate_check(mech, rect, oracle_gap=gap)
        elapsed = time.perf_counter() - start
        if mech.kind is not kind:
            problems.append(
                f"c={c}: expected kind {kind.name}, got {mech.kind.name} "
                f"with revenue {mech.revenue!r}"
            )
        if not report.passed:
            problems.append(f"c={c}: certificate failures {report.failures}")
        if abs(gap) > 5e-3 * mech.revenue:
            problems.append(f"c={c}: oracle gap {gap:.2e} above 5e-3 relative")
        if elapsed >= 5.0:
            problems.append(f"c={c}: took {elapsed:.2f} s, budget is 5 s")
    _announce(3, problems)


def test_criterion_4_deep_bundling_instance():
    problems = []
    rect = Rectangle(2.0, 2.0, 1.0, 1.0)
    mech = solve(rect)
    if mech.kind is not StructureKind.C:
        problems.append(f"expected kind C, got {mech.kind.name}")
    bundle = max(item.t for item in mech.menu)
    target = 4.0 + (math.sqrt(22.0) - 4.0) / 3.0
    if abs(bundle - target) > 1e-10:
        problems.append(f"bundle price {bundle!r} != 4+(sqrt(22)-4)/3 within 1e-10")
    gap = _oracle_gap(rect, mech.revenue)
    if abs(gap) > 5e-3 * mech.revenue:
        problems.append(f"oracle gap {gap:.2e} above 5e-3 relative")
    _announce(4, problems)


def test_criterion_5_lopsided_two_item_menu():
    problems = []
    rect = Rectangle(0.5, 8.0, 1.0, 1.0)
    mech = solve(rect)
    if mech.kind is not StructureKind.E:
        problems.append(f"expected kind E, got {mech.kind.name}")
    menu = sorted(mech.menu, key=lambda item: item.t)
    expected_menu = [(0.0, 1.0, 8.0), (1.0, 1.0, 8.75)]
    got_menu = [(item.q1, item.q2, item.t) for item in menu]
    if got_menu != expected_menu:
        problems.append(f"menu {got_menu} != {expected_menu}")
    # good 2 sells to every type at c2; good 1 rides in the bundle at its
    # single-good optimum on [c1, c1 + b1]
    target = rect.c2 + (rect.c1 + rect.b1) ** 2 / (4.0 * rect.b1)
    if abs(mech.revenue - target) > 1e-12:
        problems.append(
            f"revenue {mech.revenue!r} != c2 + (c1+b1)^2/(4 b1) = {target!r} within 1e-12"
        )
    recomputed = expected_revenue(mech.menu, rect)
    if abs(mech.revenue - recomputed) > 1e-12:
        problems.append(
            f"revenue {mech.revenue!r} != {recomputed!r} recomputed from the menu within 1e-12"
        )
    if not local_max_check(mech.menu, rect, 0.01):
        problems.append("menu is not a local revenue maximum under 0.01 perturbations")
    mirrored = solve(Rectangle(8.0, 0.5, 1.0, 1.0))
    if mirrored.kind is not StructureKind.H:
        problems.append(f"swapped instance should be kind H, got {mirrored.kind.name}")
    _announce(5, problems)


def test_criterion_6_linear_density_command(capsys):
    problems = []
    if cli.main(["linear", "0"]) != 0:
        problems.append("linear 0 exited nonzero")
    fields = {}
    for line in capsys.readouterr().out.strip().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = float(value)
    if abs(fields["p_a1"] - math.sqrt(0.6)) > 1e-9:
        problems.append(f"c=0: p_a1 {fields['p_a1']} != sqrt(0.6) within 1e-9")
    if abs(fields["p"] - 1.09597) > 1e-4:
        problems.append(f"c=0: p {fields['p']} != 1.09597 within 1e-4")
    if cli.main(["linear", "0.1"]) != 0:
        problems.append("linear 0.1 exited nonzero")
    fields = {}
    for line in capsys.readouterr().out.strip().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = float(value)
    for key, target in (("p_a1", 0.796151), ("a1", 0.231984), ("P1", 0.364655), ("p", 1.19941)):
        if abs(fields[key] - target) > 1e-4:
            problems.append(f"c=0.1: {key} {fields[key]} != {target} within 1e-4")
    _announce(6, problems)


def _sample_rectangles(count: int) -> list[Rectangle]:
    """Seeded rectangles, at least three in every phase region."""
    rng = np.random.default_rng(20260815)
    rects: list[Rectangle] = []
    tallies = {region: 0 for region in PhaseRegion}

    def draw() -> Rectangle:
        b1 = float(0.6 + 1.2 * rng.random())
        b2 = float(0.6 + 1.2 * rng.random())
        return Rectangle(float(5.0 * rng.random()) * b1, float(5.0 * rng.random()) * b2, b1, b2)

    attempts = 0
    while min(tallies.values()) < 3 and attempts < 100_000:
        attempts += 1
        rect = draw()
        region = classify(rect)
        if tallies[region] < 3:
            tallies[region] += 1
            rects.append(rect)
    while len(rects) < count:
        rect = draw()
        tallies[classify(rect)] += 1
        rects.append(rect)
    assert min(tallies.values()) >= 3, f"region coverage incomplete: {tallies}"
    return rects[:count]


def test_criterion_7_randomized_certificate_battery():
    problems = []
    start = time.perf_counter()
    rects = _sample_rectangles(50)
    regions = {classify(rect) for rect in rects}
    if regions != set(PhaseRegion):
        problems.append(f"sampled regions {sorted(r.value for r in regions)} miss some phases")
    rng = np.random.default_rng(515377520732011331)
    for rect in rects:
        total = MuBar(rect).total()
        if abs(total) > 1e-12:
            problems.append(f"{rect}: transformed measure total {total:.2e} exceeds 1e-12")
        mech = solve(rect)
        if len(mech.menu) > 4:
            problems.append(f"{rect}: menu has {len(mech.menu)} items")
        report = certificate_check(mech, rect)
        if not report.passed:
            problems.append(f"{rect}: certificate failures {report.failures}")
        if not revenue_monotonicity_check(mech.menu, rect, 21):
            problems.append(f"{rect}: payments are not monotone in the type")
        for _ in range(4):
            z = (rect.c1 + rect.b1 * rng.random(), rect.c2 + rect.b2 * rng.random())
            w = (rect.c1 + rect.b1 * rng.random(), rect.c2 + rect.b2 * rng.random())
            uz, _ = utility(mech.menu, z)
            uw, _ = utility(mech.menu, w)
            bound = abs(z[0] - w[0]) + abs(z[1] - w[1]) + 1e-12
            if abs(uz - uw) > bound:
                problems.append(f"{rect}: utility varies faster than the type distance")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"battery took {elapsed:.1f} s, budget is 60 s")
    _announce(7, problems)


KIND_REPRESENTATIVES = {
    "A": Rectangle(0.0, 0.0, 1.0, 1.0),
    "B": Rectangle(0.0, 0.0, 3.0, 1.0),
    "C": Rectangle(2.0, 2.0, 1.0, 1.0),
    "D": Rectangle(0.2, 2.8, 1.0, 1.0),
    "E": Rectangle(0.5, 8.0, 1.0, 1.0),
    "F": Rectangle(0.0, 0.0, 1.0, 5.0),
    "G": Rectangle(2.8, 0.2, 1.0, 1.0),
    "H": Rectangle(8.0, 0.5, 1.0, 1.0),
}


def _check_scaling(problems: list[str]) -> None:
    for kind, rect in KIND_REPRESENTATIVES.items():
        base = solve(rect)
        if base.kind.value != kind:
            problems.append(f"representative for {kind} solved to {base.kind.name}")
            continue
        for lam in (0.5, 2.0, 10.0):
            scaled = solve(rect.scaled(lam))
            if scaled.kind is not base.kind:
                problems.append(f"{kind}, lam={lam}: kind changed to {scaled.kind.name}")
                continue
            if abs(scaled.revenue - lam * base.revenue) > 1e-9 * max(1.0, lam * base.revenue):
                problems.append(f"{kind}, lam={lam}: revenue does not scale")
            for item, ref in zip(scaled.menu, base.menu):
                if abs(item.q1 - ref.q1) > 1e-9 or abs(item.q2 - ref.q2) > 1e-9:
                    problems.append(f"{kind}, lam={lam}: allocations changed")
                if abs(item.t - lam * ref.t) > 1e-9 * max(1.0, lam * ref.t):
                    problems.append(f"{kind}, lam={lam}: price {ref.t} does not scale")


def _check_swap_symmetry(problems: list[str]) -> None:
    for kind, rect in KIND_REPRESENTATIVES.items():
        base = solve(rect)
        mirrored = solve(rect.swapped())
        if mirrored.kind.value != MIRROR_KIND[kind]:
            problems.append(
                f"{kind}: swapped instance solved to {mirrored.kind.name}, "
                f"expected {MIRROR_KIND[kind]}"
            )
        if abs(mirrored.revenue - base.revenue) > 1e-9 * max(1.0, base.revenue):
            problems.append(f"{kind}: swapping the goods changed revenue")


def _diagonal_structure_boundary() -> float:
    """Bisect the diagonal corner offset where the four-item menu collapses."""
    lo, hi = 0.076, 0.077
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if solve(Rectangle(mid, mid, 1.0, 1.0)).kind is StructureKind.A:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_boundary_continuity(problems: list[str]) -> None:
    eps = 1e-8
    sweeps = [
        ("SS/SL", lambda d: Rectangle(0.3, 2.6 / 1.9 + d, 1.0, 1.0)),
        ("SL/SVL", lambda d: Rectangle(0.3, 2.0 / 0.49 + d, 1.0, 1.0)),
        ("SS/LS", lambda d: Rectangle(2.6 / 1.9 + d, 0.3, 1.0, 1.0)),
        ("LS/VLS", lambda d: Rectangle(2.0 / 0.49 + d, 0.3, 1.0, 1.0)),
        ("SS/BL", lambda d: Rectangle(1.0 + d, 1.0 + d, 1.0, 1.0)),
        ("SL/BL", lambda d: Rectangle(1.0 + d, 2.0, 1.0, 1.0)),
        ("LS/BL", lambda d: Rectangle(2.0, 1.0 + d, 1.0, 1.0)),
    ]
    for name, make in sweeps:
        below, above = make(-eps), make(+eps)
        if classify(below) is classify(above):
            problems.append(f"{name}: sweep does not straddle the region boundary")
        jump = abs(solve(above).revenue - solve(below).revenue)
        if jump >= 1e-6:
            problems.append(f"{name}: revenue jumps by {jump:.2e} across the boundary")
    c_star = _diagonal_structure_boundary()
    low = solve(Rectangle(c_star - eps, c_star - eps, 1.0, 1.0))
    high = solve(Rectangle(c_star + eps, c_star + eps, 1.0, 1.0))
    if low.kind is high.kind:
        problems.append("diagonal kind boundary: sweep does not straddle the kind change")
    if abs(high.revenue - low.revenue) >= 1e-6:
        problems.append(
            f"diagonal kind boundary: revenue jumps by "
            f"{abs(high.revenue - low.revenue):.2e}"
        )


def test_criterion_8_symmetries_and_continuity():
    problems = []
    _check_scaling(problems)
    _check_swap_symmetry(problems)
    _check_boundary_continuity(problems)
    _announce(8, problems)


def test_criterion_9_phase_maps_reach_every_kind(tmp_path):
    problems = []
    start = time.perf_counter()
    seen = set()
    for b1, b2 in ((1.0, 1.0), (0.6, 1.0), (1.5, 1.0)):
        target = tmp_path / f"phase_{b1}_{b2}.csv"
        code = cli.main(
            ["phase", str(b1), str(b2), "--grid", "100", "--max-ratio", "5", "--out", str(target)]
        )
        if code != 0:
            problems.append(f"phase sweep b=({b1},{b2}) exited {code}")
            continue
        lines = target.read_text().strip().splitlines()
        if lines[0] != "c1_ratio,c2_ratio,kind":
            problems.append(f"phase sweep b=({b1},{b2}) wrote header {lines[0]!r}")
        seen |= {line.rsplit(",", 1)[1] for line in lines[1:]}
    if seen != set("ABCDEFGH"):
        problems.append(f"kinds seen across maps: {sorted(seen)}, expected all of A-H")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"maps took {elapsed:.1f} s, budget is 120 s")
    _announce(9, problems)
