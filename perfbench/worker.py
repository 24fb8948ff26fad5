"""One timed pass of a benchmark workload, in a fresh interpreter.

    python worker.py '<json spec>'

run.py starts this script once per pass (and once per traced cold_report
operation) with `src` on PYTHONPATH, and reads the one JSON line it prints.
The spec holds `workload` ("catalog", "crosscheck" or "cold"), `seed`,
`pass`, `trace`, `points`, `catalog` (a catalog path or null) and, for
"cold", `case`.  A traced process adds its spans to the line it prints.

Everything a timed operation needs is prepared before `ready`; each
operation's output is converted for checking outside its timed region, and
run.py compares it with the reference.
"""

import io
import json
import random
import sys
import time
import zlib
from contextlib import redirect_stdout


def case_order(case_ids: list, seed: int, pass_index: int) -> list:
    """Seeded permutation of the case ids; independent of hash()."""
    return sorted(case_ids, key=lambda cid: zlib.crc32(
        f"{seed}/{pass_index}/{cid}".encode()))


def point_rng(seed: int, case_id: str) -> random.Random:
    """Generator of one case's sample points; the same in every pass."""
    return random.Random(seed * 2**32 + zlib.crc32(case_id.encode()))


def checked_fields(report: dict) -> dict:
    """The fields of a report document that are pinned to the reference."""
    first = report["first_eym"]
    return {
        "det": report["metric"]["det"],
        "ricci": report["ricci"],
        "scalar": report["scalar"],
        "hol_dim": report["holonomy"]["dim"],
        "stress": report["stress"],
        "first_eym": {k: first[k]
                      for k in ("outcome", "lambda", "kappa", "conditions")},
        "second_eym_residual_zero": report["second_eym"]["residual_zero"],
        "golden_ok": report["golden"]["ok"],
        "golden_flags": report["golden"]["flags"],
    }


def _tracer(spec: dict):
    if not spec["trace"]:
        return None
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def run_pass(spec: dict) -> dict:
    """catalog or crosscheck: set up, then time each operation."""
    t0 = time.perf_counter()
    import eymsym.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t0
    from eymsym import crosscheck, eym, geom, liecat, report

    tracer = _tracer(spec)
    catalog = liecat.catalog_load(spec["catalog"])
    by_id = {e.pair.case_id: e for e in catalog.entries}
    order = case_order(list(by_id), spec["seed"], spec["pass"])
    ops = []
    if spec["workload"] == "catalog":
        work = [(cid, 0) for cid in order]
    else:
        reports = {cid: eym.run_case(e) for cid, e in by_id.items()}
        rngs = {cid: point_rng(spec["seed"], cid) for cid in by_id}
        work = [(cid, k) for cid in order for k in range(spec["points"])]
    ready = time.monotonic()

    for n, (cid, k) in enumerate(work):
        entry = by_id[cid]
        if tracer:
            tracer.op = n
        sample = None
        t = time.perf_counter()
        try:
            if spec["workload"] == "catalog":
                rep = eym.run_case(entry)
            else:
                rep = reports[cid]
                sample = crosscheck.sample_point(
                    entry, rngs[cid], avoid=list(rep.verdict.conditions))
                problems = crosscheck.crosscheck_case(entry, rep, sample)
                lorentz = None
                if rep.family.lorentz:
                    lorentz = [
                        geom.lorentz_check(rep.family, sample).value
                        == "lorentzian",
                        geom.lorentz_condition_holds(rep.family.lorentz,
                                                     sample)]
        except Exception as exc:  # one failed operation must not end the pass
            dt = time.perf_counter() - t
            result = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            dt = time.perf_counter() - t
            if tracer:
                tracer.on = False
            if spec["workload"] == "catalog":
                result = checked_fields(report.report_to_dict(rep))
            else:
                result = {"problems": problems, "lorentz": lorentz}
            if tracer:
                tracer.on = True
        if sample is not None:
            result["sample"] = {name: str(v) for name, v in sample.items()}
        ops.append([cid, k, dt, result])

    out = {"ready": ready, "import_s": import_s, "ops": ops}
    if tracer:
        tracer.on = False
        out["spans"] = tracer.document()
    return out


def run_cold(spec: dict) -> dict:
    """Traced cold_report operation: `eymsym report <case> --format json`."""
    t0 = time.perf_counter()
    from eymsym import cli
    import_s = time.perf_counter() - t0
    tracer = _tracer(spec)
    tracer.op = 0
    argv = ["report", spec["case"], "--format", "json"]
    if spec["catalog"]:
        argv = ["--catalog", spec["catalog"]] + argv
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    tracer.on = False
    return {"import_s": import_s, "exit": code, "stdout": out.getvalue(),
            "spans": tracer.document()}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = run_cold(spec) if spec["workload"] == "cold" else run_pass(spec)
    print(json.dumps(result))
