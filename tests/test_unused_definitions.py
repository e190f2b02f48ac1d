"""Every function, method and class in src/optmech has a caller in the
program: src/optmech or bench/ names it outside its own definition.

A helper that only the tests use belongs in tests/helpers.py.  A name
counts as used where it appears as an AST Name, an Attribute or an import
alias; a use inside the definition's own body (recursion) does not count.
Dunder methods are exempt, since the language calls them.
"""

import ast
import pathlib
from collections import Counter

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "optmech"
_BENCH = _ROOT / "bench"

#: (module, name) -> why it stays without a caller in the program.
ALLOWED = {
    ("solver", "residual_W"): "bench/tracer.py names it as a layer; it leaves src with ROADMAP item 8",
    ("solver", "solve_pa2_given_pa1"): "bench/tracer.py names it as a layer; it leaves src with ROADMAP item 8",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree: ast.AST) -> Counter:
    """How often each identifier is named in tree."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
            if node.asname:
                names[node.asname] += 1
    return names


def _program():
    """Each module of src/optmech by name, and every .py file the uses
    are counted over."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_BENCH.rglob("*.py"))]
    return modules, [*modules.values(), *bench]


def _unused() -> tuple[list[tuple[str, str]], int]:
    modules, trees = _program()
    total = sum((_uses(tree) for tree in trees), Counter())
    unused, count = [], 0
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS) or (node.name.startswith("__") and node.name.endswith("__")):
                continue
            count += 1
            inside = sum((_uses(stmt)[node.name] for stmt in node.body), 0)
            if total[node.name] - inside <= 0:
                unused.append((module, node.name))
    return unused, count


def test_every_definition_in_src_has_a_caller_in_src_or_bench():
    unused, count = _unused()
    assert count > 100, f"only {count} definitions found under {_SRC}"
    unexplained = [f"{module}.{name}" for module, name in unused if (module, name) not in ALLOWED]
    assert not unexplained, f"named nowhere in src/optmech or bench/ outside their definition: {unexplained}"


def test_every_allowed_definition_is_still_unused():
    # an entry that gained a caller, or left src, is dropped from ALLOWED
    unused, _ = _unused()
    assert sorted(ALLOWED) == sorted(set(unused) & set(ALLOWED))
