"""Command-line behavior: output formats, exit codes, deterministic output."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

import optmech.linear
from helpers import VERIFY_CENTRES
from optmech import cli
from optmech.mechanism import expected_revenue
from optmech.oracle import REVENUE_TOL_REL
from optmech.solver import NoRoot
from optmech.solver import solve as real_solve
from optmech.types import Mechanism, Rectangle

BUNDLE_UNIT_SQUARE = (4.0 - math.sqrt(2.0)) / 3.0


def _parse_kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def test_solve_json_output(capsys):
    assert cli.main(["solve", "0", "0", "1", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "A"
    bundle_price = max(item["t"] for item in data["menu"])
    assert bundle_price == pytest.approx(BUNDLE_UNIT_SQUARE, abs=1e-10)


def test_solve_pretty_default(capsys):
    assert cli.main(["solve", "2", "2", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "kind: C" in out
    assert "revenue:" in out
    assert "menu:" in out


def test_solve_rejects_bad_rectangle(capsys):
    assert cli.main(["solve", "0", "0", "-1", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_at_a_tiny_scale(capsys):
    # its products underflowed to zero and the solve divided by one
    assert cli.main(["solve", "0.1", "0.1", "1e-200", "1e-200"]) == 0
    assert "kind: C" in capsys.readouterr().out


def test_solve_reports_divergence(monkeypatch, capsys):
    def boom(rect):
        raise NoRoot("no root bracketed")

    monkeypatch.setattr(cli, "solve", boom)
    monkeypatch.setattr(cli, "solve_kind", boom)  # phase's cells
    assert cli.main(["solve", "0", "0", "1", "1"]) == 3
    assert "no root bracketed" in capsys.readouterr().err
    assert cli.main(["phase", "1", "1", "--grid", "10"]) == 3
    assert cli.main(["verify", "0", "0", "1", "1", "--coarse", "8", "--rounds", "0"]) == 3


def test_phase_argument_validation(tmp_path, capsys):
    assert cli.main(["phase", "1", "1", "--grid", "9"]) == 2
    for bad in ("0", "inf", "nan"):
        assert cli.main(["phase", "1", "1", "--grid", "12", "--max-ratio", bad]) == 2
    assert cli.main(["phase", "0", "1", "--grid", "12"]) == 2
    # the far corner's offsets overflow when its tiny sides are brought to
    # unit size, though its prices do not
    assert cli.main(["phase", "3e-300", "1e-300", "--grid", "10", "--max-ratio", "1.7e308"]) == 2
    assert cli.main(["phase", "1", "1", "--grid", "12", "--out", "table"]) == 2
    capsys.readouterr()
    missing = tmp_path / "no_such_dir" / "map.csv"
    assert cli.main(["phase", "1", "1", "--grid", "10", "--out", str(missing)]) == 4
    assert "cannot write" in capsys.readouterr().err


def test_phase_rejects_a_far_corner_that_overflows(capsys):
    # 5 x 1e308 overflows: the sweep used to fail at that cell, exit 3
    assert cli.main(["phase", "1e308", "1", "--grid", "10"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "1e308", "1e308", "1", "1"],
        ["phase", "1", "1", "--grid", "10", "--max-ratio", "1e308"],
        ["verify", "1e308", "1e308", "1", "1", "--coarse", "8", "--rounds", "0"],
    ],
    ids=["solve", "phase", "verify"],
)
def test_a_support_whose_prices_overflow_exits_2(args, monkeypatch, capsys):
    # every corner is finite but the bundle price c1 + c2 + p is not; phase
    # finds it at its far corner, before it sweeps (a sweep would call None)
    monkeypatch.setattr(cli, "_phase_grid", None)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_solve_at_the_top_of_the_float_range_with_finite_prices(capsys):
    assert cli.main(["solve", "0", "0", "1e308", "1e308"]) == 0
    assert "(q1=1, q2=1) at t=8.61929e+307" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [["solve", "1e300", "0", "1e-300", "1e-300"], ["verify", "1e300", "0", "1e-300", "1e-300"]],
    ids=["solve", "verify"],
)
def test_a_corner_that_overflows_at_unit_size_exits_2(args, capsys):
    # the sides are brought to unit size by about 6.7e299, past which the
    # corner offset 1e300 overflows; the support itself is valid
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "overflows at unit size" in err


def test_solve_prices_a_bundle_whose_revenue_sum_overflows(capsys):
    # the bundle price 5.99e307 times its region's area overflows, and so
    # does the square of 2 (c1 + c2)/3 in the bundle offset's quadratic
    args = ["2.964164787888919e+307", "3.02824131118571e+307", "2.12409924432396", "6.715973230026775"]
    assert cli.main(["solve", *args]) == 0
    fields = _parse_kv(capsys.readouterr().out)
    assert fields["kind"] == "C"
    assert math.isfinite(float(fields["revenue"]))
    assert fields["revenue"] == "5.99241e+307"


@pytest.mark.parametrize("sides", [(1.0, 1.0), (2.75, 1.0)])
def test_phase_makes_no_mechanism(sides, monkeypatch, capsys):
    # each cell's kind comes from the solver's structure stage, which makes
    # no record; the parent solved the 24 cells whose region leaves the
    # kind open, and made a Mechanism for each
    made = []
    post_init = Mechanism.__post_init__

    def counted(self):
        made.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Mechanism, "__post_init__", counted)
    b1, b2 = sides
    assert cli.main(["phase", repr(b1), repr(b2), "--grid", "10", "--max-ratio", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 10 * 10
    assert made == []


def test_phase_csv_is_the_map_of_solved_kinds(capsys):
    rng = random.Random(20261019)
    for _ in range(30):
        n, top = rng.randint(10, 40), math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        b1, b2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        ratios = np.linspace(0.0, top, n).tolist()
        expected = ["c1_ratio,c2_ratio,kind"] + [
            f"{r1:.10g},{r2:.10g},{real_solve(Rectangle(r1 * b1, r2 * b2, b1, b2)).kind.name}"
            for r1 in ratios
            for r2 in ratios
        ]
        args = ["phase", repr(b1), repr(b2), "--grid", str(n), "--max-ratio", repr(top)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.splitlines() == expected, args


def test_phase_csv_stdout_and_header(capsys, monkeypatch):
    assert cli.main(["phase", "1", "1", "--grid", "10", "--max-ratio", "2"]) == 0
    default_out = capsys.readouterr().out
    assert cli.main(["phase", "1", "1", "--grid", "10", "--max-ratio", "2", "--out", "csv"]) == 0
    named_out = capsys.readouterr().out
    assert default_out == named_out
    lines = default_out.strip().splitlines()
    assert lines[0] == "c1_ratio,c2_ratio,kind"
    assert len(lines) == 1 + 10 * 10
    kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert kinds <= set("ABCDEFGH")
    assert lines[1] == "0,0,A", "the zero-corner unit square leads the sweep"
    # the corner ratios are numpy's linspace to the bit, over seeded grids
    seen = []

    def record(b1, b2, ratios):
        seen.append(ratios)
        return [["A"] * len(ratios)] * len(ratios)

    monkeypatch.setattr(cli, "_phase_grid", record)
    rng = random.Random(20261019)
    for _ in range(200):
        n, top = rng.randint(10, 40), math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        assert cli.main(["phase", "1", "1", "--grid", str(n), "--max-ratio", repr(top)]) == 0
        assert seen[-1] == np.linspace(0.0, top, n).tolist(), (n, top)
    capsys.readouterr()


def test_phase_csv_is_deterministic(tmp_path):
    runs = []
    for k in range(2):
        target = tmp_path / f"map_{k}.csv"
        code = cli.main(
            ["phase", "1", "1", "--grid", "12", "--max-ratio", "5", "--out", str(target)]
        )
        assert code == 0
        runs.append(target.read_bytes())
    assert runs[0] == runs[1], "CSV must be byte-identical across runs"


def test_phase_svg_contains_legend(capsys):
    assert cli.main(["phase", "1", "1", "--grid", "10", "--out", "svg"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("<svg")
    assert out.count("<rect ") >= 10 * 10 + 8
    for kind in "ABCDEFGH":
        assert f">{kind}</text>" in out, f"legend entry for kind {kind} missing"


def test_verify_passes_on_unit_square(capsys):
    code = cli.main(["verify", "0", "0", "1", "1", "--coarse", "9", "--rounds", "4"])
    out = capsys.readouterr().out
    assert code == 0, out
    fields = _parse_kv(out)
    assert fields["kind"] == "A"
    assert fields["result"] == "PASS"
    assert fields["failures"] == "none"
    assert abs(float(fields["oracle_gap"])) < 5e-3
    # zero offsets: the closed-form revenue is judged relative to itself
    assert abs(float(fields["revenue_gap"])) <= REVENUE_TOL_REL * float(fields["revenue"])


@pytest.mark.parametrize(
    "args, kind",
    [
        (["1e-12", "0", "4.32577161455233", "0.646798625626365"], "B"),
        (["0", "1e-12", "0.48768954745466575", "2.4021752207089593"], "F"),
    ],
)
def test_verify_passes_on_snapped_offsets(args, kind, capsys):
    # an offset of 1e-12 gives a lottery weight of about 1e-12, whose
    # ramp shuffle must certify like the flat price at a zero offset
    code = cli.main(["verify", *args, "--coarse", "9", "--rounds", "2"])
    out = capsys.readouterr().out
    assert code == 0, out
    fields = _parse_kv(out)
    assert fields["kind"] == kind
    assert fields["result"] == "PASS"


def test_verify_passes_the_grid_sensitive_kind_e_support_at_the_defaults(capsys):
    # At --coarse 8 --rounds 2 the search trails the solver here by 1.56 x
    # GAP_SHORTFALL_REL and verify exits 5: where the coarse grid falls
    # limits that search, not the solved menu.
    args = ["0.028844260254100137", "1.4933677433752508", "0.704893940903433", "0.5774788202066793"]
    code = cli.main(["verify", *args])
    out = capsys.readouterr().out
    assert code == 0, out
    fields = _parse_kv(out)
    assert fields["kind"] == "E"
    assert fields["result"] == "PASS"


def test_verify_flags_a_mispriced_menu(monkeypatch, capsys):
    def mispriced(rect):
        mech = real_solve(rect)
        items = list(mech.menu)
        idx = max(range(len(items)), key=lambda k: items[k].t)
        items[idx] = dataclasses.replace(items[idx], t=items[idx].t + 0.05)
        menu = tuple(items)
        return dataclasses.replace(mech, menu=menu, revenue=expected_revenue(menu, rect))

    monkeypatch.setattr(cli, "solve", mispriced)
    code = cli.main(["verify", "0", "0", "1", "1", "--coarse", "8", "--rounds", "0"])
    out = capsys.readouterr().out
    assert code == 5, out
    fields = _parse_kv(out)
    assert fields["result"] == "FAIL"
    assert "foc_gradient" in fields["failures"]


def test_verify_argument_validation():
    assert cli.main(["verify", "0", "0", "1", "1", "--coarse", "7"]) == 2
    assert cli.main(["verify", "0", "0", "1", "1", "--rounds", "-1"]) == 2
    assert cli.main(["verify", "0", "0", "0", "1"]) == 2


def test_linear_prints_solution_fields(capsys):
    assert cli.main(["linear", "0.1"]) == 0
    fields = _parse_kv(capsys.readouterr().out)
    assert float(fields["p_a1"]) == pytest.approx(0.796151366, abs=1e-8)
    assert float(fields["a1"]) == pytest.approx(0.231983558, abs=1e-8)
    assert float(fields["P1"]) == pytest.approx(0.364655444, abs=1e-8)
    assert float(fields["p"]) == pytest.approx(1.199411099, abs=1e-8)
    assert float(fields["t_a1"]) == pytest.approx(0.919349722, abs=1e-8)
    assert float(fields["revenue"]) == pytest.approx(0.942295210, abs=1e-8)


def test_linear_zero_endpoint(capsys):
    assert cli.main(["linear", "0"]) == 0
    fields = _parse_kv(capsys.readouterr().out)
    assert float(fields["p_a1"]) == pytest.approx(math.sqrt(0.6), abs=1e-9)
    assert float(fields["a1"]) == 0.0
    assert float(fields["p"]) == pytest.approx(1.09597, abs=1e-4)


def test_linear_rejects_out_of_range(capsys):
    assert cli.main(["linear", "0.3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_linear_reports_a_missing_kink_root(monkeypatch, capsys):
    monkeypatch.setattr(optmech.linear, "_mu_w", lambda *args: -0.5)
    assert cli.main(["linear", "0.1"]) == 3
    err = capsys.readouterr().err
    assert "no kink root at c=0.1" in err and "f = -0.5, -0.5" in err


@pytest.mark.parametrize("j", [110, -110])
def test_verify_passes_far_from_unit_size(j, capsys):
    for kind, rect in VERIFY_CENTRES.items():
        args = map(repr, (c * 4.0**j for c in (rect.c1, rect.c2, rect.b1, rect.b2)))
        assert cli.main(["verify", *args, "--coarse", "8", "--rounds", "2"]) == 0, kind
        assert "result: PASS" in capsys.readouterr().out
