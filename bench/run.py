#!/usr/bin/env python3
"""Benchmark for optmech: end-to-end metrics, or per-layer metrics traced.

Usage, from the repository root:

    python3 bench/run.py --workload regions --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter, operations per second, operation latency and peak memory,
with every time scaled to a reference host speed by a calibration kernel
(``Calibration``); the unscaled times go to standard error.
``--trace 1`` runs the same rounds first untraced and then with every
layer wrapped by ``tracer.Tracer``, and prints per-layer call counts and
self times per round, plus the tracing overhead.  Either way every
distinct output is checked after the timed section, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters started per run for ``setup_s``: at least
#: SETUP_REPEATS, and more, up to SETUP_MAX_REPEATS, while the probes so
#: far have taken under SETUP_BUDGET_S.  A probe takes about 0.3 s, or
#: 2 s with a `verify` call, and single probes in a row spread from 0.2 s
#: to 0.34 s.  The harness has imported optmech itself beforehand, so the
#: bytecode cache is warm.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0

#: Percentile, over the operations of a round, of the latency reported per
#: workload: the highest with at least ten of the round's distinct inputs
#: beyond it (300 in regions), and the median where a round has too few
#: for a tail (24 in linear).  Phase (3 maps) and verify (9 calls) report
#: the mean operation, as a median of so few unlike operations would jump
#: between them.
LATENCY_PERCENTILE = {"regions": 95, "linear": 50}

#: Best time of ``calibration_kernel`` on the 2-CPU host whose figures
#: bench/README.md gives (median 0.84 ms over fifty runs there, 0.74 ms
#: to 1.28 ms).  Every end-to-end time is scaled by this over the
#: kernel's best time in the run, so it reads as on that host.
CAL_REF_S = 0.85e-3

#: The kernel is sampled after an operation once this long has passed
#: since its last sample, so it costs a few percent of a run.
CAL_EVERY_S = 0.05

_CAL_POLY = np.linspace(0.1, 1.0, 8)


def calibration_kernel() -> float:
    """Fixed work that shares no code with optmech but is of the two kinds
    it does: pure-Python float arithmetic and small numpy calls."""
    acc = 0.0
    for i in range(2000):
        acc += (i * 0.5) % 7.0
    for i in range(16):
        acc += float(np.abs(np.roots(_CAL_POLY + i * 1e-3)).sum())
    return acc


class Calibration:
    """Best time of ``calibration_kernel``, sampled between operations.

    The host the benchmark was built on runs everything up to twice as
    slowly for minutes at a time.  An operation's best time over a run
    follows those spells, and so does the kernel's best time over the
    same run; their ratio does not.  Over forty 15 s windows of `linear`
    the summed best times spread by 12% between quartiles and their ratio
    to the kernel's best time by 4.6%.
    """

    def __init__(self) -> None:
        self.best = math.inf
        self.last = -math.inf

    def sample(self) -> None:
        perf = time.perf_counter
        for _ in range(3):
            t0 = perf()
            calibration_kernel()
            self.best = min(self.best, perf() - t0)
        self.last = perf()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one on the
        reference host."""
        return CAL_REF_S / self.best


def _error_key(exc: BaseException) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


class Rounds:
    """Runs whole rounds of a workload's operations and times each one.

    The first output of each operation is kept for checking; every later
    output is reduced by ``key`` and compared with the first, so a repeat
    that differs marks the operation as failed.
    """

    def __init__(self, wl, optmech, ops) -> None:
        self.wl, self.optmech, self.ops = wl, optmech, ops
        self.first: list = [None] * len(ops)
        self.first_keys: list = [None] * len(ops)
        self.changed: set[int] = set()

    def run(self, seconds: float, cal: Calibration) -> tuple[int, list[float]]:
        """Whole rounds, for ``seconds`` at most where a round is shorter.

        A round starts only if the mean round so far would end it by then
        (the first always runs).  A `verify` round takes 14-17 s: under a
        plain "until ``seconds`` have passed" a 15 s run held one round
        or two, depending on host speed, and its best times were 7% lower
        with two.

        Returns the number of rounds and, per operation, its shortest wall
        time over them.  The host this was built on changes speed by up to
        a factor of two from second to second (CPU time moves with wall
        time, so it is not preemption); the best of many repetitions of
        each input is what stays put between runs.  ``cal`` is sampled
        between operations, outside the timed calls.
        """
        best = [math.inf] * len(self.ops)
        rounds = 0
        gc.collect()
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            self.one_round(best, cal)
            rounds += 1
        return rounds, best

    def one_round(self, best: list[float], cal: Calibration) -> None:
        """Every operation once, lowering ``best`` where it ran faster."""
        perf = time.perf_counter
        for i, op in enumerate(self.ops):
            t0 = perf()
            try:
                out = self.wl.run(self.optmech, op)
            except Exception as exc:  # a failed operation, checked below
                out = exc
            best[i] = min(best[i], perf() - t0)
            key = _error_key(out) if isinstance(out, Exception) else self.wl.key(out)
            if self.first_keys[i] is None:
                self.first[i], self.first_keys[i] = out, key
            elif key != self.first_keys[i]:
                self.changed.add(i)
            cal.sample_if_due()

    def failures(self) -> dict[int, str]:
        """Why each failing operation failed, by index in the round."""
        out = {}
        for i, (op, first) in enumerate(zip(self.ops, self.first)):
            if isinstance(first, Exception):
                out[i] = f"raised {type(first).__name__}: {first}"
            elif i in self.changed:
                out[i] = "output changed between rounds"
            else:
                try:
                    reason = self.wl.check(self.optmech, op, first)
                except Exception as exc:  # a malformed output
                    reason = f"check raised {type(exc).__name__}: {exc}"
                if reason:
                    out[i] = reason
        return out


def measure_setup(name, op, cal: Calibration) -> float:
    """Median wall time of a fresh interpreter importing optmech as
    ``main`` does and running the workload's first operation through the
    same ``run`` that the timed rounds call.  ``cal`` is sampled before
    each interpreter starts."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "import optmech, optmech.cli\n"
        "import workloads\n"
        f"workloads.make({name!r}, {str(OUT_DIR)!r}).run(optmech, workloads.{op!r})\n"
    )
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_REPEATS or (
        len(samples) < SETUP_MAX_REPEATS and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(elapsed)
    return statistics.median(samples)


def warm_up(wl, optmech, op) -> None:
    """One untimed operation, so that lazy imports and caches are settled;
    a failure here shows again, and is counted, in the timed rounds."""
    try:
        wl.run(optmech, op)
    except Exception:
        pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, wl, ops, optmech, seconds) -> tuple[Rounds, int, dict]:
    cal = Calibration()
    setup = measure_setup(name, ops[0], cal)
    runner = Rounds(wl, optmech, ops)
    warm_up(wl, optmech, ops[0])
    rounds, best = runner.run(seconds, cal)
    rss = peak_rss_mb()
    if name in LATENCY_PERCENTILE:
        latency = statistics.quantiles(best, n=100)[LATENCY_PERCENTILE[name] - 1]
    else:
        latency = statistics.fmean(best)
    scale = cal.scale()
    print(
        f"unscaled: setup_s {setup!r} ops_per_s {len(ops) / sum(best)!r} "
        f"latency_ms {1000.0 * latency!r} kernel_best_s {cal.best!r}",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (scale * setup, "s"),
        "ops_per_s": (len(ops) / (scale * sum(best)), "1/s"),
        "latency_ms": (1000.0 * scale * latency, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return runner, rounds, metrics


def per_layer(name, wl, ops, optmech, seconds, seed) -> tuple[Rounds, int, dict]:
    """Untraced and traced rounds in turn until ``seconds`` have passed,
    so that a change in host speed falls on both alike; each side is
    also scaled by its own calibration, as `verify` has one round a side."""
    runner = Rounds(wl, optmech, ops)
    warm_up(wl, optmech, ops[0])
    tr = tracer.Tracer()
    plain = [math.inf] * len(ops)
    traced = [math.inf] * len(ops)
    plain_cal, traced_cal = Calibration(), Calibration()
    traced_rounds = 0
    gc.collect()
    start = time.perf_counter()
    while not traced_rounds or time.perf_counter() - start < seconds:
        runner.one_round(plain, plain_cal)
        tr.install(optmech)
        try:
            runner.one_round(traced, traced_cal)
        finally:
            tr.uninstall()
        traced_rounds += 1
    totals = tr.totals()
    metrics = {}
    for layer, (calls, _total, self_s) in totals.items():
        metrics[f"{layer}.calls"] = (calls / traced_rounds, "count")
        metrics[f"{layer}.self_ms"] = (1000.0 * self_s / traced_rounds, "ms")
    solves = totals["solver.solve"][0]
    builds = totals["mechanism.build_mechanism"][0]
    metrics["mechanism.build_mechanism.per_solve"] = (builds / solves if solves else 0.0, "ratio")
    overhead = (traced_cal.scale() * sum(traced)) / (plain_cal.scale() * sum(plain)) - 1.0
    metrics["trace_overhead_pct"] = (100.0 * overhead, "%")
    tr.dump(
        str(OUT_DIR / f"trace-{name}-{seed}.json"),
        {"workload": name, "seed": seed, "rounds": traced_rounds, "ops_per_round": len(ops)},
    )
    return runner, 2 * traced_rounds, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not ns.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "optmech" / "__init__.py").is_file():
        print(f"error: no optmech package under {SRC}", file=sys.stderr)
        return 2

    # The phase command maps its rows on a pool of OPTMECH_THREADS threads
    # (os.cpu_count() if unset).  The rows are pure-Python solves that
    # hold the GIL, so on 2 CPUs a second thread made a map about 10%
    # slower and its best time twice as unsteady between runs, as the GIL
    # passed between CPUs.  One worker keeps the pool and times the map.
    # The set-up interpreters inherit this.
    os.environ["OPTMECH_THREADS"] = "1"

    sys.path.insert(0, str(SRC))
    import optmech
    import optmech.cli  # noqa: F401  (the phase and verify workloads call it)

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(ns.workload, str(OUT_DIR))
    ops = wl.ops(random.Random(ns.seed))
    if ns.trace:
        runner, rounds, metrics = per_layer(ns.workload, wl, ops, optmech, ns.seconds, ns.seed)
    else:
        runner, rounds, metrics = end_to_end(ns.workload, wl, ops, optmech, ns.seconds)

    failures = runner.failures()
    for i, reason in sorted(failures.items()):
        tag = "known fault" if ops[i].fault else "FAILED"
        print(f"{tag}: {ops[i].label} {ops[i].args!r}: {reason}", file=sys.stderr)
    result = {
        "correct": all(ops[i].fault for i in failures),
        "attempted": rounds * len(ops),
        "failed": rounds * len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
