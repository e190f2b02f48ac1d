"""Command-line behavior: output formats, exit codes, deterministic output."""

import dataclasses
import json
import math

import pytest

from optmech import cli
from optmech.mechanism import expected_revenue
from optmech.solver import NoRoot
from optmech.solver import solve as real_solve

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


def test_solve_reports_divergence(monkeypatch, capsys):
    def boom(rect):
        raise NoRoot("no root bracketed")

    monkeypatch.setattr(cli, "solve", boom)
    assert cli.main(["solve", "0", "0", "1", "1"]) == 3
    assert "no root bracketed" in capsys.readouterr().err
    assert cli.main(["phase", "1", "1", "--grid", "10"]) == 3
    assert cli.main(["verify", "0", "0", "1", "1", "--coarse", "8", "--rounds", "0"]) == 3


def test_phase_argument_validation(tmp_path, capsys):
    assert cli.main(["phase", "1", "1", "--grid", "9"]) == 2
    assert cli.main(["phase", "1", "1", "--grid", "12", "--max-ratio", "0"]) == 2
    assert cli.main(["phase", "0", "1", "--grid", "12"]) == 2
    assert cli.main(["phase", "1", "1", "--grid", "12", "--out", "table"]) == 2
    capsys.readouterr()
    missing = tmp_path / "no_such_dir" / "map.csv"
    assert cli.main(["phase", "1", "1", "--grid", "10", "--out", str(missing)]) == 4
    assert "cannot write" in capsys.readouterr().err


def test_phase_csv_stdout_and_header(capsys):
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
