"""A bad catalog ends in a defined exit code, never in a traceback.

Each seeded mutation changes one token of a `case`, `param`, `bracket` or
`golden` line of the bundled catalog, or drops or repeats the line, and runs
`list`, `report <case>` and `validate --filter <case>` through `cli.main`
on the result, with <case> the block the line belongs to.  One more
mutation drops every `bracket e_i u_j` line of a seeded block, so that h
acts trivially on m there, and its `golden metric` line, which would
otherwise be refused as not the general invariant form before any solve.
Another drops the last row of a seeded block's `golden metric`, which no
one-token change can do; the catalog must be refused at load.  Every run
must return an exit code of the contract (0..5) without raising, and an exit
of 2, 3 or 4 must come with exactly one stderr line.
"""

from __future__ import annotations

import random
import re
from importlib import resources

from eymsym import eym
from eymsym.cli import main

TEXT = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
LINES = TEXT.splitlines(keepends=True)
TOKEN = re.compile(r"\w+|[^\w\s]")
# replacement tokens: numbers, letters, labels, operators and delimiters
POOL = ["0", "1", "2", "-1", "10", "1/0", "x", "a", "b", "lam", "t", "u1",
        "e1", "e3", "(", ")", "*", "/", "^", "+", "-", "=", ">", "<", '"',
        ",", ";", "[", "]", ""]
MUTATIONS = 120


def _targets() -> list:
    """(line index, case id) of every case, param, bracket and golden line."""
    out, case = [], None
    for i, line in enumerate(LINES):
        head = line.split(" ", 1)[0]
        if head == "case":
            case = re.match(r'case "([^"]+)"', line).group(1)
        if case is not None and head in ("case", "param", "bracket", "golden"):
            out.append((i, case))
    return out


def _mutations(seed: int, count: int) -> list:
    rng = random.Random(seed)
    targets = _targets()
    out = []
    for _ in range(count):
        i, case = rng.choice(targets)
        lines = list(LINES)
        kind = rng.choice(("change", "change", "drop", "repeat"))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = list(TOKEN.finditer(lines[i]))
            tok = rng.choice(tokens)
            new = rng.choice(POOL + [t.group() for t in tokens])
            lines[i] = lines[i][:tok.start()] + new + lines[i][tok.end():]
        out.append((f"{kind} line {i + 1}", case, "".join(lines)))
    case = rng.choice(sorted({case for _, case in targets}))
    drop = {i for i, c in targets if c == case and re.match(
        r"bracket e\d+ u\d+ |golden metric ", LINES[i])}
    lines = [line for i, line in enumerate(LINES) if i not in drop]
    out.append((f"isolate block {case}", case, "".join(lines)))
    i, case = rng.choice([(i, c) for i, c in targets
                          if LINES[i].startswith("golden metric ")])
    lines = list(LINES)
    lines[i] = re.sub(r";[^;]*\]", "]", lines[i])
    out.append((f"truncate line {i + 1}", case, "".join(lines)))
    return out


def test_mutated_catalogs_end_in_a_defined_exit_code(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(eym, "_SOLVED", {})
    path = tmp_path / "catalog.txt"
    kinds, codes = set(), set()
    for what, case, text in _mutations(7, MUTATIONS):
        kinds.add(what.split()[0])
        path.write_text(text)
        for argv in (["list"], ["report", case],
                     ["validate", "--filter", case]):
            code = main(["--catalog", str(path)] + argv)
            err = capsys.readouterr().err
            context = f"{what} ({case}), {argv[0]}: {err!r}"
            assert type(code) is int and 0 <= code <= 5, context
            if what.startswith("truncate"):
                assert code == 2, context
            if 2 <= code <= 4:
                assert err.count("\n") == 1 and err.endswith("\n"), context
            codes.add(code)
    # the seed changes, drops and repeats lines, and reaches a clean run, a
    # mismatch, a catalog error and an unanalysable case
    assert kinds == {"change", "drop", "repeat", "isolate", "truncate"}
    assert {0, 1, 2, 5} <= codes
