"""The benchmark's span tracer still fits the functions it wraps.

`perfbench/spans.py` names its targets as (module, attribute path) pairs and
looks each one up when `perfbench/run.py --trace 1` or `perfbench/selftest.py`
installs the tracer; a renamed or deleted function would break both, and so
would a wrapper that changes what a traced call returns.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# Runs in a fresh interpreter, since installing the tracer rebinds names in
# every loaded eymsym module.
_TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import eymsym.cli
from eymsym import eym, liecat, report
import spans

entry = liecat.catalog_load().get(sys.argv[3])
plain = report.json_dumps(report.report_to_dict(eym.run_case(entry)))
tracer = spans.Tracer()
tracer.install()
traced = report.json_dumps(report.report_to_dict(eym.run_case(entry)))
calls = {name: row["calls_all"]
         for name, row in spans.summarize(tracer.document()).items()}
print(json.dumps({"same": traced == plain, "calls": calls}))
"""


# A numeric check of a numeric sample point: crosscheck_case and lorentz_check
# at seeded points, traced after an untraced run on the same points.
_TRACED_CROSSCHECK = """
import json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import eymsym.cli
from eymsym import crosscheck, eym, geom, liecat
import spans

entry = liecat.catalog_load().get(sys.argv[3])
rep = eym.run_case(entry)
rng = random.Random(7)
samples = [crosscheck.sample_point(entry, rng, avoid=list(rep.verdict.conditions))
           for _ in range(4)]

def check():
    return [[crosscheck.crosscheck_case(entry, rep, s),
             geom.lorentz_check(rep.family, s).value] for s in samples]

plain = check()
tracer = spans.Tracer()
tracer.install()
traced = check()
calls = {name: row["calls_all"]
         for name, row in spans.summarize(tracer.document()).items()}
print(json.dumps({"same": traced == plain, "plain": plain, "calls": calls}))
"""

# Two checks of one Lorentz condition in a traced process: the condition is
# parsed once, one parse_ratfunc call per side.
_TRACED_CONDITION = """
import json, sys
from fractions import Fraction
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import eymsym.cli
from eymsym import geom
import spans

tracer = spans.Tracer()
tracer.install()
sample = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1), "d": Fraction(3)}
held = [geom.lorentz_condition_holds("b*d > c^2", sample) for _ in range(2)]
calls = {name: row["calls_all"]
         for name, row in spans.summarize(tracer.document()).items()}
print(json.dumps({"held": held, "calls": calls}))
"""

def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    for modname, path, name, _ in targets:
        module = importlib.import_module(f"eymsym.{modname}")
        head, *rest = path.split(".")
        assert head in vars(module), name
        owner = vars(module)[head]
        for part in rest:
            assert hasattr(owner, part), name
            owner = getattr(owner, part)
        assert callable(owner), name


def test_traced_run_case_records_spans_and_keeps_the_report():
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "src"),
         str(SPANS.parent), "2.1^2(1)"],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["same"]
    calls = result["calls"]
    assert calls["eym.run_case"] == 1
    # the untraced run already built the isotropy matrices: run_case takes
    # them from its memo, and the report reads them off the CaseReport
    assert calls["liecat.isotropy_rep"] == 0
    # the untraced run already solved this case: run_case's memo answers
    # without a metric or connection solve, and the only curvature built is
    # the Levi-Civita one
    assert calls["geom.solve_invariant_metric"] == 0
    assert calls["conn.solve_connections"] == 0
    assert calls["conn.depends_on_connection_params"] == 0
    assert calls["conn.curvature"] == 1
    assert calls["conn.holonomy"] == 1
    assert calls["conn.expand_in_basis"] == 1
    assert calls["linalg.rref"] > 0


def test_traced_crosscheck_builds_no_symbolic_determinant():
    """A sample point costs int and Fraction arithmetic only: no polynomial
    gcd, no symbolic determinant and no RatFunc.evaluate in the cross-check
    or the signature, which reads g's entries as int ratios."""
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_CROSSCHECK, str(ROOT / "src"),
         str(SPANS.parent), "1.1^1(7)"],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["same"]
    assert [verdict for _, verdict in result["plain"]].count("lorentzian") >= 1
    assert all(problems == [] for problems, _ in result["plain"])
    calls = result["calls"]
    assert calls["crosscheck.crosscheck_case"] == 4
    assert calls["crosscheck.NumericCase"] == 4
    assert calls["geom.signature_at"] == 0
    assert calls["exact.evaluate"] == 0
    assert calls["exact.poly_gcd"] == 0
    assert calls["linalg.det"] == 0


def test_traced_condition_parses_are_counted():
    """parse_condition looks parse_ratfunc up when it is called, so the
    tracer's wrapper sees the parses of a Lorentz condition."""
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_CONDITION, str(ROOT / "src"),
         str(SPANS.parent)],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["held"] == [True, True]
    assert result["calls"]["exact.parse_ratfunc"] == 2
