"""Seeded inputs, the timed operation and its checks, for each workload.

A workload turns a seed into a fixed list of operations (one *round*).
The harness repeats whole rounds, times each operation, and afterwards
checks every distinct output against ``reference`` (which shares no code
with the program) and against the properties the paper guarantees.

Operations marked ``fault`` are fixed instances of a known solver fault:
they do not depend on the seed, fail their checks on every run, and are
counted as failed.  Any other failing operation makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

import reference as ref

#: Relative tolerance of the revenue bound and invariance checks.  The
#: program computes revenues from exact polygon areas and the references
#: are exact up to rounding, so only rounding noise needs room.
REL_TOL = 1e-9

#: Fixed instance of the fault at the SmallSmall boundary with c1 = 0
#: (c2 just below 2 b2): the solver returns a menu that separate selling
#: beats.  Independent of the seed, so each run fails it alike.
FAULT_RECT = (0.0, 1.999998, 2.3220394, 1.0)

#: Upper end of the linear-density family, as documented for ``optmech``.
C_MAX = 0.250116


@dataclass(frozen=True)
class Op:
    """One operation: its arguments, a label saying how it was drawn, and
    whether it is a fixed instance of the known fault."""

    args: tuple
    label: str
    fault: bool = False


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _radical_inverse(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index:
        f /= base
        out += f * (index % base)
        index //= base
    return out


class Spread:
    """Points spread evenly over the unit cube, in a seeded position.

    A Halton sequence shifted modulo 1 by a seeded offset (a randomised
    quasi-Monte Carlo design).  Every prefix of it covers the cube in the
    same proportions whatever the seed, so the mix of cheap and costly
    inputs in a round, and with it the round's cost, varies far less from
    seed to seed than with independent draws.
    """

    BASES = (2, 3, 5, 7, 11)

    def __init__(self, rng: random.Random, dim: int) -> None:
        self.shift = [rng.random() for _ in range(dim)]
        self.index = 0

    def next(self) -> list[float]:
        self.index += 1
        return [(_radical_inverse(self.index, b) + s) % 1.0 for b, s in zip(self.BASES, self.shift)]


def _scaled_log(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) log-uniformly onto [lo, hi)."""
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# Phase-region thresholds of the paper, written out here so that drawing
# inputs does not depend on the program under test.


def small_threshold(c1: float, b1: float, b2: float) -> float:
    """c2 bound of the SmallSmall region at given c1: 2 b2 (b1+c1)/(b1+3 c1)."""
    return 2.0 * b2 * (b1 + c1) / (b1 + 3.0 * c1)


def verylarge_threshold(c1: float, b1: float, b2: float) -> float:
    """c2 at which SmallLarge gives way to SmallVeryLarge (c1 < b1)."""
    return 2.0 * b2 * (b1 / (b1 - c1)) ** 2


def region(c1: float, c2: float, b1: float, b2: float) -> str:
    if (c1 <= b1 and c2 <= small_threshold(c1, b1, b2)) or (
        c2 <= b2 and c1 <= small_threshold(c2, b2, b1)
    ):
        return "SmallSmall"
    if c1 <= b1:
        if c1 >= b1 or c2 < verylarge_threshold(c1, b1, b2):
            return "SmallLarge"
        return "SmallVeryLarge"
    if c2 <= b2:
        if c2 >= b2 or c1 < verylarge_threshold(c2, b2, b1):
            return "LargeSmall"
        return "VeryLargeSmall"
    return "BothLarge"


#: Structure kinds and their images under the goods swap.
MIRROR = {"A": "A", "B": "F", "C": "C", "D": "G", "E": "H", "F": "B", "G": "D", "H": "E"}

REGIONS = ("SmallSmall", "SmallLarge", "SmallVeryLarge", "LargeSmall", "VeryLargeSmall", "BothLarge")


def _near(u: float, value: float) -> float:
    """value moved by a relative distance in [1e-12, 1e-2], below it for
    u < 1/2 and above it otherwise."""
    delta = _scaled_log(2.0 * u % 1.0, 1e-12, 1e-2)
    return value * (1.0 - delta if u < 0.5 else 1.0 + delta)


def _mirror(args: tuple) -> tuple:
    c1, c2, b1, b2 = args
    return (c2, c1, b2, b1)


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def _marginals(c1, c2, b1, b2):
    return ref.Uniform(c1, b1), ref.Uniform(c2, b2)


# Each comparison is written so that a NaN fails it.


def check_revenue_bounds(revenue: float, m1, m2) -> str | None:
    lo = ref.lower_bound(m1, m2)
    if not revenue >= lo * (1.0 - REL_TOL):
        return f"revenue {revenue!r} below the bundle/separate-sale bound {lo!r}"
    hi = ref.upper_bound(m1, m2)
    if not revenue <= hi * (1.0 + REL_TOL):
        return f"revenue {revenue!r} above E[z1+z2] = {hi!r}"
    return None


def check_menu_revenue(menu, revenue: float, m1, m2) -> str | None:
    grid, err = ref.menu_revenue(menu, m1, m2)
    if not abs(grid - revenue) <= err + REL_TOL * abs(revenue):
        return f"revenue {revenue!r} but the menu earns {grid!r} +- {err:.2e} on the grid"
    return None


def check_mechanism(optmech, args: tuple, mech) -> str | None:
    """Every property a solved mechanism must have, checked independently."""
    m1, m2 = _marginals(*args)
    menu = [(it.q1, it.q2, it.t) for it in mech.menu]
    if len(menu) > 4:
        return f"{len(menu)} menu items"
    failure = check_revenue_bounds(mech.revenue, m1, m2) or check_menu_revenue(
        menu, mech.revenue, m1, m2
    )
    if failure:
        return failure
    rect = optmech.Rectangle(*args)
    swapped = optmech.solve(rect.swapped()).revenue
    if not abs(swapped - mech.revenue) <= REL_TOL * abs(mech.revenue):
        return f"swapped goods earn {swapped!r}, not {mech.revenue!r}"
    scaled = optmech.solve(rect.scaled(2.0)).revenue / 2.0
    if not abs(scaled - mech.revenue) <= REL_TOL * abs(mech.revenue):
        return f"doubled support earns 2 x {scaled!r}, not 2 x {mech.revenue!r}"
    return None


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Base: ``ops`` draws one round from a seed, ``run`` is the timed call,
    ``key`` reduces an output for the repeat-equality check, and ``check``
    returns None or why the output is wrong.  Files a workload writes go
    to ``out_dir``."""

    name = ""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def ops(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, optmech, op: Op):
        raise NotImplementedError

    def key(self, out):
        return out

    def check(self, optmech, op: Op, out) -> str | None:
        raise NotImplementedError


class Regions(Workload):
    """Library ``optmech.solve`` on seeded rectangles with both offsets
    positive: the same number in each of the six phase regions, plus a
    slice near every region threshold."""

    name = "regions"
    PER_REGION = 40
    PER_THRESHOLD = 10

    def run(self, optmech, op: Op):
        return optmech.solve(optmech.Rectangle(*op.args))

    def key(self, mech):
        return (mech.kind, mech.revenue, mech.menu)

    def check(self, optmech, op: Op, mech) -> str | None:
        return check_mechanism(optmech, op.args, mech)

    def ops(self, rng: random.Random) -> list[Op]:
        out: list[Op] = []
        for target in REGIONS:
            spread = Spread(rng, 4)
            drawn = 0
            while drawn < self.PER_REGION:
                u = spread.next()
                b1, b2 = _scaled_log(u[2], 0.3, 3.0), _scaled_log(u[3], 0.3, 3.0)
                c1, c2 = 4.5 * u[0] * b1, 4.5 * u[1] * b2
                if c1 > 0.0 and c2 > 0.0 and region(c1, c2, b1, b2) == target:
                    out.append(Op((c1, c2, b1, b2), target))
                    drawn += 1
        for mirrored in (False, True):
            spread = Spread(rng, 4)
            for _ in range(self.PER_THRESHOLD):
                # u[0] places the point on the threshold curve, u[1] sets its
                # distance and side, u[2:4] the side lengths
                u = spread.next()
                b1, b2 = _scaled_log(u[2], 0.3, 3.0), _scaled_log(u[3], 0.3, 3.0)
                # SmallSmall against SmallLarge
                c1 = (0.001 + 0.999 * u[0]) * b1
                args = (c1, _near(u[1], small_threshold(c1, b1, b2)), b1, b2)
                out.append(Op(_mirror(args) if mirrored else args, "near-small"))
                # SmallLarge against SmallVeryLarge
                c1 = (0.001 + 0.599 * u[0]) * b1
                args = (c1, _near(u[1], verylarge_threshold(c1, b1, b2)), b1, b2)
                out.append(Op(_mirror(args) if mirrored else args, "near-verylarge"))
                # SmallLarge against BothLarge, across c1 = b1
                args = (_near(u[1], b1), (1.01 + 3.49 * u[0]) * b2, b1, b2)
                out.append(Op(_mirror(args) if mirrored else args, "near-large"))
        return out


class CliWorkload(Workload):
    """A command run in process through ``optmech.cli.main``."""

    def argv(self, op: Op) -> list[str]:
        raise NotImplementedError


class Phase(CliWorkload):
    """``optmech phase`` through ``optmech.cli.main``, writing CSV: one map
    at equal sides and one at side ratio ``RATIO`` each way round, per
    round.  The seed sets only the scale of the sides: the map is drawn
    in ratios c/b, so every seed does the same work, and a seeded side
    ratio moved the cost of a round by up to 15%."""

    name = "phase"
    # The smallest grid the command takes.  A 10 x 10 map takes about
    # 25 ms, so a 15 s run times each map over 100 times for its best
    # time; 40 x 40 maps took 0.3 s, and their best times spread by 15%
    # between runs.
    GRID = 10
    MAX_RATIO = 5.0
    RATIO = 2.75

    def ops(self, rng: random.Random) -> list[Op]:
        b = _log_uniform(rng, 0.5, 2.0)
        return [
            Op((b, b), "equal-sides"),
            Op((self.RATIO * b, b), "lopsided"),
            Op((b, self.RATIO * b), "lopsided-mirror"),
        ]

    def argv(self, op: Op) -> list[str]:
        b1, b2 = op.args
        path = os.path.join(self.out_dir, f"phase-{op.label}.csv")
        return [
            "phase", repr(b1), repr(b2),
            "--grid", str(self.GRID), "--max-ratio", repr(self.MAX_RATIO), "--out", path,
        ]

    def run(self, optmech, op: Op):
        argv = self.argv(op)
        code = optmech.cli.main(argv)
        with open(argv[-1], encoding="utf-8") as fh:
            return code, fh.read()

    def check(self, optmech, op: Op, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        b1, b2 = op.args
        lines = text.splitlines()
        n = self.GRID
        if lines[:1] != ["c1_ratio,c2_ratio,kind"] or len(lines) != n * n + 1:
            return f"map has {len(lines) - 1} rows, want {n * n}"
        step = self.MAX_RATIO / (n - 1)
        kinds = {}
        for row in lines[1:]:
            r1, r2, kind = row.split(",")
            i, j = round(float(r1) / step), round(float(r2) / step)
            if kind not in MIRROR:
                return f"unknown kind {kind!r}"
            kinds[i, j] = kind
        if len(kinds) != n * n:
            return "map has repeated or missing cells"
        if b1 == b2:
            for (i, j), kind in kinds.items():
                if kinds[j, i] != MIRROR[kind]:
                    return f"equal sides but cell ({i},{j}) is {kind}, ({j},{i}) is {kinds[j, i]}"
        corner = kinds[0, 0]
        if max(b1, b2) <= 2.0 * min(b1, b2):
            if corner != "A":
                return f"zero corner is {corner}, want A at side ratio <= 2"
        elif corner not in ("B", "F"):
            return f"zero corner is {corner}, want B or F at side ratio > 2"
        return None


class Verify(CliWorkload):
    """``optmech verify`` through ``optmech.cli.main``, one seeded instance
    per structure kind A-H, plus the fixed fault instance."""

    name = "verify"
    COARSE = 8
    ROUNDS = 2
    # Ratios c1/b1, c2/b2 and side b1 (with b2 = 1) well inside each kind's
    # zone.  The seed scales each support by a factor in [0.5, 2].  The
    # search and the certificate are scale-invariant, so the verdict does
    # not depend on the seed: moving the centres by 5% instead made the
    # grid search trail the kind-E optimum by 1.6 times the tolerance
    # on one seed of thirty.
    CENTRES = {
        "A": (0.05, 0.05, 1.0),
        "B": (0.04, 1.2, 1.3),
        "C": (2.9, 2.1, 0.9),
        "D": (0.2, 2.275, 1.653),
        "E": (0.04, 2.512, 1.267),
        "F": (0.469, 0.127, 0.767),
        "G": (1.9, 0.18, 0.314),
        "H": (2.42, 0.03, 0.595),
    }

    def ops(self, rng: random.Random) -> list[Op]:
        out = []
        for kind, (r1, r2, b1) in self.CENTRES.items():
            scale = _log_uniform(rng, 0.5, 2.0)
            out.append(Op((r1 * b1 * scale, r2 * scale, b1 * scale, scale), kind))
        out.append(Op(FAULT_RECT, "fault", fault=True))
        return out

    def argv(self, op: Op) -> list[str]:
        return ["verify", *map(repr, op.args), "--coarse", str(self.COARSE), "--rounds", str(self.ROUNDS)]

    def run(self, optmech, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = optmech.cli.main(self.argv(op))
        return code, buf.getvalue()

    def check(self, optmech, op: Op, out) -> str | None:
        code, text = out
        fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        if code != 0 or fields.get("result") != "PASS":
            return f"exit {code}, result {fields.get('result')}, failures {fields.get('failures')}"
        return check_revenue_bounds(float(fields["revenue"]), *_marginals(*op.args))


class Linear(Workload):
    """``solve_linear`` then ``linear_revenue``, at c = 0, c = C_MAX and
    one seeded c in each of 22 equal strata of (0, C_MAX)."""

    name = "linear"
    STRATA = 22

    def ops(self, rng: random.Random) -> list[Op]:
        cs = [C_MAX * (k + rng.uniform(0.01, 0.99)) / self.STRATA for k in range(self.STRATA)]
        return [Op((c,), "c") for c in [0.0, *cs, C_MAX]]

    def run(self, optmech, op: Op):
        sol = optmech.solve_linear(op.args[0])
        return sol, optmech.linear_revenue(sol, sol.c)

    def key(self, out):
        sol, rev = out
        return (sol.to_dict(), rev)

    def check(self, optmech, op: Op, out) -> str | None:
        sol, rev = out
        m = ref.Linear(op.args[0])
        menu = [(it.q1, it.q2, it.t) for it in sol.menu()]
        return check_revenue_bounds(rev, m, m) or check_menu_revenue(menu, rev, m, m)


WORKLOADS = {cls.name: cls for cls in (Regions, Phase, Verify, Linear)}

NAMES = tuple(WORKLOADS)


def make(name: str, out_dir: str) -> Workload:
    return WORKLOADS[name](out_dir)
