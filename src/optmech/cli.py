"""Command-line front end: solve instances, sweep phase maps, verify, linear."""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .linear import NoConvergence, OutOfRange, linear_revenue, solve_linear
from .oracle import brute_force_menu_search, certificate_check
from .solver import NoRoot, solve, solve_kind
from .types import PriceOverflow, Rectangle, UnitSizeOverflow, unit_scale

__all__ = ["main"]

#: Fixed raster palette keyed by structure kind, for SVG phase maps.
KIND_COLORS: dict[str, str] = {
    "A": "#4477aa",
    "B": "#66ccee",
    "C": "#228833",
    "D": "#ccbb44",
    "E": "#ee6677",
    "F": "#aa3377",
    "G": "#dddddd",
    "H": "#ee8866",
}


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_solve(ns: argparse.Namespace) -> int:
    try:
        rect = Rectangle(ns.c1, ns.c2, ns.b1, ns.b2)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        mech = solve(rect)
    except NoRoot as exc:
        return _fail(str(exc), 3)
    except (PriceOverflow, UnitSizeOverflow) as exc:
        return _fail(str(exc), 2)
    if ns.json:
        print(mech.to_json(indent=2))
    else:
        print(mech.pretty())
    return 0


def _phase_grid(b1: float, b2: float, ratios: list[float]) -> list[list[str]]:
    """Kinds on the grid of corner ratios, row-major in c1/b1: ``solve``'s,
    found with no record, whose price check the far corner stands in for."""
    return [[solve_kind(Rectangle(r1 * b1, r2 * b2, b1, b2)).name for r2 in ratios] for r1 in ratios]


def _phase_csv(grid: list[list[str]], ratios: list[float]) -> str:
    labels = [f"{r:.10g}" for r in ratios]
    lines = ["c1_ratio,c2_ratio,kind"]
    for l1, row in zip(labels, grid):
        lines.extend(f"{l1},{l2},{kind}" for l2, kind in zip(labels, row))
    return "\n".join(lines) + "\n"


def _phase_svg(grid: list[list[str]], max_ratio: float, b1: float, b2: float) -> str:
    n = len(grid)
    cell = max(2, 600 // n)
    side = cell * n
    margin = 50
    legend_w = 120
    width = margin + side + legend_w + 20
    height = margin + side + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin + side / 2:.0f}" y="{margin - 28}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">'
        f"structure kinds, b1={b1:g} b2={b2:g}</text>",
    ]
    for i in range(n):
        for j in range(n):
            x = margin + i * cell
            y = margin + (n - 1 - j) * cell
            color = KIND_COLORS[grid[i][j]]
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>'
            )
    parts.append(
        f'<text x="{margin + side / 2:.0f}" y="{margin + side + 22}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">c1/b1 (0 to {max_ratio:g})</text>'
    )
    parts.append(
        f'<text x="{margin - 34}" y="{margin + side / 2:.0f}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 {margin - 34} {margin + side / 2:.0f})">'
        f"c2/b2 (0 to {max_ratio:g})</text>"
    )
    lx = margin + side + 16
    for idx, kind in enumerate(KIND_COLORS):
        ly = margin + idx * 24
        parts.append(
            f'<rect x="{lx}" y="{ly}" width="16" height="16" fill="{KIND_COLORS[kind]}"/>'
        )
        parts.append(
            f'<text x="{lx + 22}" y="{ly + 13}" font-size="13" '
            f'font-family="sans-serif">{kind}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_phase(ns: argparse.Namespace) -> int:
    if ns.grid < 10:
        return _fail(f"--grid must be at least 10, got {ns.grid}", 2)
    if not 0.0 < ns.max_ratio < math.inf:
        return _fail(f"--max-ratio must be positive and finite, got {ns.max_ratio}", 2)
    try:  # the far corner, where the offsets and the prices are largest
        far = Rectangle(ns.max_ratio * ns.b1, ns.max_ratio * ns.b2, ns.b1, ns.b2)
        unit_scale(far)  # an offset that overflows at unit size
        if far.z1_max + far.z2_max == math.inf:  # else no price can overflow
            solve(far)
    except ValueError as exc:  # a bad side or corner, UnitSizeOverflow or PriceOverflow
        return _fail(str(exc), 2)
    except NoRoot as exc:
        return _fail(str(exc), 3)
    out = ns.out
    if out in (None, "csv", "svg"):
        fmt = out or "csv"
        path = None
    elif out.endswith(".csv"):
        fmt, path = "csv", out
    elif out.endswith(".svg"):
        fmt, path = "svg", out
    else:
        return _fail(f"--out must be csv, svg, or a path ending in .csv/.svg, got {out!r}", 2)

    # numpy's linspace, to the bit: i * step, with the last ratio exact
    step = ns.max_ratio / (ns.grid - 1)
    ratios = [i * step for i in range(ns.grid - 1)] + [ns.max_ratio]
    try:
        grid = _phase_grid(ns.b1, ns.b2, ratios)
    except NoRoot as exc:
        return _fail(str(exc), 3)
    if fmt == "csv":
        text = _phase_csv(grid, ratios)
    else:
        text = _phase_svg(grid, ns.max_ratio, ns.b1, ns.b2)
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {path!r}: {exc}", 4)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    try:
        rect = Rectangle(ns.c1, ns.c2, ns.b1, ns.b2)
        _, best = brute_force_menu_search(rect, coarse=ns.coarse, refine_rounds=ns.rounds)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        mech = solve(rect)
    except NoRoot as exc:
        return _fail(str(exc), 3)
    except PriceOverflow as exc:
        return _fail(str(exc), 2)
    gap = mech.revenue - best
    report = certificate_check(mech, rect, oracle_gap=gap)
    print(f"instance: c1={rect.c1:g} c2={rect.c2:g} b1={rect.b1:g} b2={rect.b2:g}")
    print(f"kind: {mech.kind.name}")
    print(f"revenue: {mech.revenue:.12g}")
    print(f"search best: {best:.12g}")
    print(f"oracle_gap: {gap:.6e}")
    print(f"revenue_gap: {report.revenue_gap:.6e}")
    for name in ("mu_D", "mu_Z", "mu_W", "mu_A", "mu_B"):
        print(f"{name}: {getattr(report, name):.6e}")
    print(f"shuffle_mass: {report.shuffle_mass:.6e}")
    print(f"shuffle_moment: {report.shuffle_moment:.6e}")
    print(f"foc_gradient_norm: {report.foc_gradient_norm:.6e}")
    print(f"failures: {', '.join(report.failures) if report.failures else 'none'}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 5


def cmd_linear(ns: argparse.Namespace) -> int:
    try:
        sol = solve_linear(ns.c)
    except OutOfRange as exc:
        return _fail(str(exc), 2)
    except NoConvergence as exc:
        return _fail(str(exc), 3)
    rev = linear_revenue(sol, sol.c)
    print(f"c: {sol.c:g}")
    print(f"p_a1: {sol.p_a1:.9f}")
    print(f"a1: {sol.a1:.9f}")
    print(f"P1: {sol.P1:.9f}")
    print(f"P2: {sol.P2:.9f}")
    print(f"p: {sol.p:.9f}")
    print(f"t_a1: {sol.t_a1:.9f}")
    print(f"revenue: {rev:.9f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built on the first call and shared
    after; its handlers look up the solver when they run."""
    parser = argparse.ArgumentParser(
        prog="optmech",
        description="Revenue-optimal two-good menus on rectangular supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    for name in ("c1", "c2", "b1", "b2"):
        p.add_argument(name, type=float)
    p.add_argument("--json", action="store_true", help="print mechanism JSON (default: aligned table)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("phase", help="sweep a structure-kind map over corner ratios")
    p.add_argument("b1", type=float)
    p.add_argument("b2", type=float)
    p.add_argument("--grid", type=int, default=100, help="grid points per axis (>= 10)")
    p.add_argument("--max-ratio", type=float, default=5.0, help="upper corner ratio")
    p.add_argument(
        "--out",
        default=None,
        help="'csv' or 'svg' for stdout, or a path ending in .csv/.svg",
    )
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("verify", help="certificate and search cross-check")
    for name in ("c1", "c2", "b1", "b2"):
        p.add_argument(name, type=float)
    p.add_argument("--coarse", type=int, default=16, help="coarse grid points per axis")
    p.add_argument("--rounds", type=int, default=4, help="refinement rounds")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("linear", help="solve the linear-density family")
    p.add_argument("c", type=float)
    p.set_defaults(func=cmd_linear)

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    raise SystemExit(main())
