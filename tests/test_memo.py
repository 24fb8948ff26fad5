"""One metric and one connection solve per distinct input in a process.

`eym.run_case` keeps the metric solve in one dict keyed on the values the
metric solve reads, and a report's first read of its connection family adds
the connection solve and the dependence decision to the same entry; these
tests pin that the shared results equal fresh solves, that the catalog has
14 distinct inputs, that the isotropy matrices are built once per input,
that only `report` solves a connection family, that the key separates the
[e_a, u_j] brackets, shape, Lorentz text and case parameters but not the
[m, m] brackets, that a failure still names its own case, and that the
order in which cases run does not change a report byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eymsym import eym
from eymsym.cli import main
from eymsym.conn import depends_on_connection_params, solve_connections
from eymsym.eym import run_case
from eymsym.exact import RatFunc, parse_ratfunc, rf
from eymsym.geom import BadMetricShape, SingularMetric, solve_invariant_metric
from eymsym.liecat import (CaseGolden, CaseParam, CatalogEntry, LiePair,
                           catalog_load, isotropy_rep)
from eymsym.linalg import FieldMatrix
from eymsym.report import json_dumps, report_markdown, report_to_dict

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(entry) -> tuple:
    """The metric family, connection family and dependence decision of an
    entry, solved without the memo."""
    rhos = isotropy_rep(entry.pair)
    family = solve_invariant_metric(entry.pair, rhos, entry.golden.metric,
                                    entry.golden.lorentz)
    conn = solve_connections(rhos, family)
    return family, conn, depends_on_connection_params(conn)


def _same(r, fresh) -> bool:
    family, conn, dep = fresh
    return ((r.family.g, r.family.det_g, r.family.free_params,
             r.family.lorentz) == (family.g, family.det_g,
                                   family.free_params, family.lorentz)
            and (r.conn.maps, r.conn.free_params, r.conn.basis)
            == (conn.maps, conn.free_params, conn.basis)
            and r.curvature_param_dependent == dep)


def test_memoized_families_equal_fresh_solves(catalog, reports):
    for entry in catalog.entries:
        assert _same(reports[entry.pair.case_id], _fresh(entry)), \
            entry.pair.case_id


def _variant(entry, metric=None, lorentz=None, params=(),
             brackets=None) -> CatalogEntry:
    pair = LiePair(case_id=entry.pair.case_id, dim_h=entry.pair.dim_h,
                   brackets=entry.pair.brackets if brackets is None
                   else brackets, params=list(params))
    return CatalogEntry(pair, CaseGolden(metric=metric, lorentz=lorentz))


def test_memo_keys_separate_what_the_solves_read(catalog, monkeypatch):
    """Inputs that differ only in the shape, in the Lorentz condition, in
    the case parameters a shapeless solve skips, or in one [e_a, u_j]
    coefficient get results of their own, each equal to a fresh solve;
    negated [m, m] brackets, which the solves do not read, share one."""
    memo = {}
    monkeypatch.setattr(eym, "_SOLVED", memo)
    entry = catalog.get("1.1^1(7)")
    g = entry.golden.metric
    # the same invariant forms, with the letters b and d swapped
    swapped = FieldMatrix(4, 4, [[parse_ratfunc(x) for x in row.split(",")]
                                 for row in "0,0,a,0 0,d,0,c a,0,0,0 0,c,0,b"
                                 .split()])
    variants = [_variant(entry, g), _variant(entry, swapped),
                _variant(entry, g, "b*d > c^2"), _variant(entry),
                _variant(entry, params=[CaseParam("a", "a != 0")])]
    reports = [run_case(v) for v in variants]
    assert len(memo) == len(variants)
    for v, r in zip(variants, reports):
        assert _same(r, _fresh(v)), v.pair.case_id
    assert reports[0].family.g != reports[1].family.g
    assert reports[0].conn.maps != reports[1].conn.maps
    assert [r.family.lorentz for r in reports[:3]] == [None, None, "b*d > c^2"]
    assert reports[3].family.free_params == ["a", "b", "c", "d"]
    assert reports[4].family.free_params == ["b", "c", "d", "e"]
    # a case parameter the shape does not name leaves the key as it is
    run_case(_variant(entry, g, params=[CaseParam("t", ">=0")]))
    assert len(memo) == len(variants)

    # [e1, u1] = u1 + u3 instead of u1: another isotropy matrix, a miss
    brackets = {**entry.pair.brackets,
                ("e1", "u1"): {"u1": rf(1), "u3": rf(1)}}
    other = _variant(entry, brackets=brackets)
    r = run_case(other)
    assert len(memo) == len(variants) + 1
    assert _same(r, _fresh(other))
    assert r.rhos != reports[3].rhos and r.family.g != reports[3].family.g

    # [u1, u3] = -e1 instead of e1: the same isotropy matrices and shape, a
    # hit that shares the entry's matrices and families but not the curvature
    brackets = {**entry.pair.brackets, ("u1", "u3"): {"e1": rf(-1)}}
    negated = _variant(entry, g, brackets=brackets)
    r = run_case(negated)
    assert len(memo) == len(variants) + 1
    assert _same(r, _fresh(negated))
    assert r.rhos is reports[0].rhos and r.family is reports[0].family
    assert r.conn is reports[0].conn
    assert r.lc.ricci == -reports[0].lc.ricci != reports[0].lc.ricci


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_solve_per_distinct_input(catalog, monkeypatch):
    """run_case builds the isotropy matrices and solves the metric once per
    distinct input, builds the curvature coefficients once per case, and
    solves no connection family; reading the reports' families solves each
    distinct one once."""
    monkeypatch.setattr(eym, "_SOLVED", {})
    conn_solves = _counting(monkeypatch, eym, "solve_connections")
    dep_calls = _counting(monkeypatch, eym, "depends_on_connection_params")
    metric_solves = _counting(monkeypatch, eym, "solve_invariant_metric")
    isotropy = _counting(monkeypatch, eym, "isotropy_rep")
    coefficients = _counting(monkeypatch, eym, "_curvature_coefficients")
    reports = [run_case(entry) for entry in catalog.entries]
    assert (len(conn_solves), len(dep_calls), len(metric_solves)) == (0, 0, 14)
    assert (len(isotropy), len(coefficients)) == (14, 35)
    # siblings share one list of isotropy matrices and one family
    assert len({id(r.rhos) for r in reports}) == 14
    assert len({id(r.conn) for r in reports}) == 14
    assert len({id(r.family) for r in reports}) == 14
    assert (len(conn_solves), len(dep_calls)) == (14, 14)
    # a second read, and a second pass, solve nothing
    for r in reports:
        r.conn, r.curvature_param_dependent
    for entry in catalog.entries:
        run_case(entry).conn
    assert (len(conn_solves), len(dep_calls), len(metric_solves)) == (14, 14, 14)


@pytest.mark.parametrize("argv", [
    ["validate"], ["tables"], ["tables", "--format", "json"],
    ["solve", "1.1^2(9)", "--sample", "a=3,b=1,c=0,d=1"]])
def test_verbs_that_print_no_connection_family_solve_none(argv, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(eym, "_SOLVED", {})
    conn_solves = _counting(monkeypatch, eym, "solve_connections")
    dep_calls = _counting(monkeypatch, eym, "depends_on_connection_params")
    assert main(argv) == 0
    capsys.readouterr()
    assert (conn_solves, dep_calls) == ([], [])


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_report_solves_its_connection_family_once(fmt, capsys, monkeypatch):
    monkeypatch.setattr(eym, "_SOLVED", {})
    conn_solves = _counting(monkeypatch, eym, "solve_connections")
    dep_calls = _counting(monkeypatch, eym, "depends_on_connection_params")
    assert main(["report", "1.1^2(9)", "--format", fmt]) == 0
    assert "v8" in capsys.readouterr().out
    assert (len(conn_solves), len(dep_calls)) == (1, 1)


def test_failed_metric_solve_names_its_own_case(tmp_path, monkeypatch):
    memo = {}
    monkeypatch.setattr(eym, "_SOLVED", memo)
    text = (resources.files("eymsym") / "data" / "catalog.txt").read_text()
    line = "golden metric = [0,0,a,0; 0,b,0,0; a,0,0,0; 0,0,0,b]\n"
    start = text.index('case "2.1^2(4)"')
    broken = text[:start] + text[start:].replace(
        line, "golden metric = [a,0,0,0; 0,b,0,0; 0,0,a,0; 0,0,0,b]\n", 1)
    assert broken != text
    path = tmp_path / "catalog.txt"
    path.write_text(broken)
    bad = catalog_load(str(path))
    for k in (1, 2, 3, 5, 6):
        run_case(bad.get(f"2.1^2({k})"))
    assert len(memo) == 1
    for _ in range(2):      # the failure is not stored
        with pytest.raises(BadMetricShape,
                           match=r"^2\.1\^2\(4\): shape is not invariant$"):
            run_case(bad.get("2.1^2(4)"))
    assert len(memo) == 1


def test_singular_metric_fails_before_the_connection_solve(monkeypatch):
    """e1 scales u1 alone, so every invariant form vanishes on u1: the metric
    solve refuses the family, naming the case, and nothing is stored."""
    memo = {}
    monkeypatch.setattr(eym, "_SOLVED", memo)
    conn_solves = _counting(monkeypatch, eym, "solve_connections")
    one = RatFunc.const(1)
    pair = LiePair(case_id="x(1)", dim_h=1,
                   brackets={("e1", "u1"): {"u1": one}})
    for _ in range(2):
        with pytest.raises(SingularMetric,
                           match=r"^x\(1\): det g vanishes identically"):
            run_case(CatalogEntry(pair, CaseGolden()))
    assert (memo, conn_solves) == ({}, [])


# Runs in a fresh interpreter, so the memo starts empty.
_REVERSED_RUN = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from eymsym.eym import run_case
from eymsym.liecat import catalog_load
from eymsym.report import json_dumps, report_markdown, report_to_dict

out = {}
for entry in reversed(catalog_load().entries):
    r = run_case(entry)
    out[r.case_id] = [hashlib.sha256(text.encode()).hexdigest() for text in
                      (json_dumps(report_to_dict(r)), report_markdown(r))]
print(json.dumps(out))
"""


def test_reverse_order_gives_the_same_reports(reports):
    out = subprocess.run([sys.executable, "-c", _REVERSED_RUN, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    reversed_digests = json.loads(out.stdout)
    assert list(reversed_digests) == list(reports)[::-1]
    for cid, r in reports.items():
        expected = [hashlib.sha256(text.encode()).hexdigest() for text in
                    (json_dumps(report_to_dict(r)), report_markdown(r))]
        assert reversed_digests[cid] == expected, cid
