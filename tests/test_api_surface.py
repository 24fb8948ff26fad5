"""Every function and class in src/eymsym is used by name in src/eymsym.

A definition that only the tests call belongs in tests/helpers.py; one that
nothing calls is dead code.  A name counts as used when a Name or Attribute
node outside the definition's own body spells it, so a function that only
calls itself still fails.

The match is on bare names, not on types: a method counts as used when any
use of its name does.  So a method that shares its name with another one
passes with no caller of its own, as FieldMatrix.evaluate and
CurvatureForm.variables did beside RatFunc.evaluate and RatFunc.variables
while only the tests called them.  Such a method is found by reading, not by
this guard.

Every name an import binds in a module, at module or function level, is
also referred to in that module; `from __future__` imports are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eymsym"

# qualified name -> why it stays without a caller in src
ALLOWED = {
    "cli.main": "the console entry point (pyproject [project.scripts])",
    "cli._Parser.error": "argparse calls it on a bad argument",
    "crosscheck.NumericCase.second_residual":
        "numeric second-equation reference for the member sweep "
        "(ROADMAP item 3)",
    "crosscheck.NumericCase.star":
        "numeric Hodge star for the member sweep (ROADMAP item 3)",
    "exact.Poly.constant_value":
        "the Fraction boundary of the integer kernel (exact docstring)",
    "exact.RatFunc.constant_value":
        "the Fraction boundary of the integer kernel (exact docstring)",
}


def _span_targets() -> set:
    """`module.attribute` of each TARGETS entry in perfbench/spans.py, read
    from its source: the tracer looks these up by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {f"{item.elts[0].value}.{item.elts[1].value}"
                    for item in node.value.elts}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _references(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module: str, body: list, prefix: str = ""):
    """(qualified name, bare name, node) of the functions and classes,
    methods included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield f"{module}.{prefix}{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(module, node.body,
                                        f"{prefix}{node.name}.")


def unreferenced(src: Path) -> list:
    """Qualified names of the definitions under `src` that nothing else in
    `src` refers to, dunders, ALLOWED and the span targets exempt."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    exempt = set(ALLOWED) | _span_targets()
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree.body):
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified in exempt:
                continue
            if total[name] - _references(node)[name] <= 0:
                out.append(qualified)
    return out


def test_every_definition_is_used_in_src():
    assert unreferenced(SRC) == []


def test_every_exemption_names_a_definition():
    defined = {qualified
               for path in SRC.glob("*.py")
               for qualified, _, _ in _definitions(
                   path.stem, ast.parse(path.read_text()).body)}
    assert set(ALLOWED) <= defined
    assert _span_targets() <= defined


def test_an_unused_function_is_reported(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "conn.py").write_text(
        (SRC / "conn.py").read_text()
        + "\n\ndef _orphan(x):\n    return _orphan(x - 1) if x else 0\n")
    assert unreferenced(tmp_path) == ["conn._orphan"]


def unused_imports(src: Path) -> list:
    """`module.name` of each name bound by an import in a module under
    `src` that no Name node of that module spells, sorted."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append(f"{path.stem}.{name}")
    return sorted(out)


def test_every_import_is_used_in_its_module():
    assert unused_imports(SRC) == []


def test_an_unused_import_is_reported(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    edits = {"linalg.py": ("from .exact import RF_ONE, RF_ZERO, RatFunc, rf",
                           "from .exact import RF_ONE, RF_ZERO, PoleAtPoint, "
                           "RatFunc, rf"),
             # a function-level import
             "cli.py": ("from .crosscheck import crosscheck_case, sample_point",
                        "from .crosscheck import (NumericCase, crosscheck_case,"
                        " sample_point)")}
    for name, (old, new) in edits.items():
        text = (SRC / name).read_text()
        assert text.count(old) == 1, name
        (tmp_path / name).write_text(text.replace(old, new))
    assert unused_imports(tmp_path) == ["cli.NumericCase", "linalg.PoleAtPoint"]
