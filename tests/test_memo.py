"""One metric and one connection solve per distinct input in a process.

`geom.solve_invariant_metric` and `conn.solve_connections` keep their
results keyed on the values they read; these tests pin that the shared
results equal fresh solves, that the catalog has 14 distinct inputs of
each, that a failure still names its own case, and that the order in which
cases run does not change a report byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from eymsym import conn, geom
from eymsym.eym import run_case
from eymsym.geom import BadMetricShape, MetricFamily
from eymsym.liecat import CaseParam, LiePair, catalog_load, isotropy_rep
from eymsym.linalg import det
from eymsym.report import json_dumps, report_markdown, report_to_dict

SRC = Path(__file__).resolve().parents[1] / "src"


def test_memoized_families_equal_fresh_solves(catalog, reports):
    for entry in catalog.entries:
        r = reports[entry.pair.case_id]
        rhos = isotropy_rep(entry.pair)
        fresh = geom._solve_invariant_metric(
            entry.pair, rhos, entry.golden.metric, entry.golden.lorentz,
            {p.name for p in entry.pair.params})
        assert (r.family.g, r.family.det_g, r.family.free_params,
                r.family.lorentz) == (fresh.g, fresh.det_g, fresh.free_params,
                                      fresh.lorentz), entry.pair.case_id
        fresh_conn = conn._solve_connections(rhos, fresh)
        assert r.conn.maps == fresh_conn.maps, entry.pair.case_id
        assert r.conn.free_params == fresh_conn.free_params
        assert r.conn.basis == fresh_conn.basis


def test_memo_keys_separate_what_the_solves_read(catalog):
    """Inputs that differ only in g, in the Lorentz condition, or in the case
    parameters a shapeless solve skips get results of their own."""
    entry = catalog.get("1.1^1(7)")
    pair, g = entry.pair, entry.golden.metric
    rhos = isotropy_rep(pair)
    family = geom.solve_invariant_metric(pair, rhos, shape=g)
    g0 = g.subs({"c": 0})
    family0 = MetricFamily(g=g0, free_params=["a", "b", "d"], det_g=det(g0))
    for metric in (family, family0):
        assert (conn.solve_connections(rhos, metric).maps
                == conn._solve_connections(rhos, metric).maps)
    assert (conn.solve_connections(rhos, family).maps
            != conn.solve_connections(rhos, family0).maps)
    for lorentz in ("b*d > c^2", None):
        assert geom.solve_invariant_metric(
            pair, rhos, shape=g, lorentz=lorentz).lorentz == lorentz
    plain = LiePair(case_id="free", dim_h=1, brackets={})
    with_a = LiePair(case_id="free-a", dim_h=1, brackets={},
                     params=[CaseParam("a", "a != 0")])
    for lie, letter in ((plain, "a"), (with_a, "b")):
        assert geom.solve_invariant_metric(
            lie, isotropy_rep(lie)).free_params[0] == letter


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_solve_per_distinct_input(catalog, monkeypatch):
    monkeypatch.setattr(conn, "_FAMILIES", {})
    monkeypatch.setattr(geom, "_FAMILIES", {})
    conn_solves = _counting(monkeypatch, conn, "_solve_connections")
    metric_solves = _counting(monkeypatch, geom, "_solve_invariant_metric")
    reports = [run_case(entry) for entry in catalog.entries]
    assert len(conn_solves) == 14
    assert len(metric_solves) == 14
    # siblings share one family; a second pass solves nothing
    assert len({id(r.conn) for r in reports}) == 14
    assert len({id(r.family) for r in reports}) == 14
    for entry in catalog.entries:
        run_case(entry)
    assert (len(conn_solves), len(metric_solves)) == (14, 14)


def test_failed_metric_solve_names_its_own_case(tmp_path, monkeypatch):
    monkeypatch.setattr(geom, "_FAMILIES", {})
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
    assert len(geom._FAMILIES) == 1
    for _ in range(2):      # the failure is not stored
        with pytest.raises(BadMetricShape,
                           match=r"^2\.1\^2\(4\): shape is not invariant$"):
            run_case(bad.get("2.1^2(4)"))
    assert len(geom._FAMILIES) == 1


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
