"""The README's examples print what the README says they print."""

import contextlib
import io
import pathlib
import re

import optmech
from optmech import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_snippet_prints_what_its_comments_say():
    code = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    scope: dict = {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    commented = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert commented == ["E", "8.5625"]
    assert out.getvalue().splitlines()[: len(commented)] == commented
    assert scope["report"].passed


def test_every_public_name_is_documented():
    # each name of the public surface appears in code quotes, bare or
    # under its module path
    names = [name for name in optmech.__all__ if name != "__version__"]
    assert [name for name in names if not re.search(rf"`(?:[\w.]+\.)?{name}\b", README)] == []


def test_solve_example_is_the_cli_output():
    block = re.search(r"```text\n\$ optmech solve 0 0 1 1\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", "0", "0", "1", "1"]) == 0
    assert out.getvalue().splitlines() == block.splitlines()


def test_exit_code_commands_exit_as_stated(capsys):
    # each sentence of the exit-code paragraph that names commands states
    # one code for all of them
    paragraph = re.search(r"\nExit codes: (.*?)\n\n", README, re.S).group(1)
    ran = set()
    for sentence in re.split(r"\.\s+", paragraph):
        named = re.findall(r"`((?:solve|phase|verify|linear) [^`]+)`", sentence)
        if not named:
            continue
        (code,) = {int(c) for c in re.findall(r"\bexits? (\d)\b", sentence)}
        for command in named:
            assert cli.main(command.split()) == code, command
            ran.add(command)
    capsys.readouterr()
    assert ran >= {
        "phase 1e308 1",
        "phase 1 1 --grid 10 --max-ratio 1e308",
        "solve 1e308 1e308 1 1",
        "verify 1e308 1e308 1 1 --coarse 8 --rounds 0",
        "solve 0 0 1e308 1e308",
        "solve 1e300 0 1e-300 1e-300",
        "verify 1e300 0 1e-300 1e-300",
        "solve 6.9790745385297335 0.22840716114454754 2.8912976813182687e+279 1.510086571594266e-277",
        "phase 2.323982635771136e-231 4.342142079687406e+141 --grid 10 --max-ratio 216.72143261369322",
        "solve 8.329559564690836 2.030421339897083 0.033916860774850385 5e-324",
        "verify 1.4473489521325638e+141 39.92868952274346 5e-324 0.0047706976682450625 --coarse 8 --rounds 2",
        "solve 0 0 1 1e-310",
        "verify 0.01844544792661458 1.7e+308 0.02712023207648371 228.0278322398297 --coarse 8 --rounds 2",
        "verify 1e50 1e50 1 1 --coarse 8 --rounds 2",
    }
