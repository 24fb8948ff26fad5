"""Self-test of the benchmark's checks and seeded inputs.

    python3 perfbench/selftest.py

1. A catalog copy with one corrupted bracket (as in
   tests/test_cli.py::test_validate_detects_corrupted_bracket) makes the
   affected catalog and cold_report operations fail.
2. A tampered reference field is caught.
3. One seed draws the same crosscheck sample points in two processes with
   different hash seeds and case orders; another seed draws other points.
4. Two traced passes at one seed give the same call counts, per workload.

Prints one PASS/FAIL line per check and exits 0 only if all pass.
"""

import copy
import json
import sys

import run
import spans

CORRUPTED_CASE = "1.1^1(7)"
TAMPERED_CASE = "2.1^2(3)"
COUNTS = ["exact.poly_gcd.calls", "linalg.rref.calls", "conn.curvature.calls",
          "liecat.isotropy_rep.calls", "eym.hodge_star_2form.calls"]


def check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def worker_pass(workload: str, seed: int, index: int, hash_seed: int) -> tuple:
    """A traced worker pass: its operations and its call counts."""
    spec = {"workload": workload, "seed": seed, "pass": index, "trace": True,
            "points": run.POINTS, "catalog": None}
    _, _, proc = run._spawn(
        [sys.executable, str(run.WORKER), json.dumps(spec)], hash_seed)
    doc = run._last_json(proc, f"{workload} worker")
    layers = spans.summarize(doc["spans"])
    counts = {name: layers[name[:-len(".calls")]]["calls"] for name in COUNTS}
    return doc["ops"], counts


def samples(ops: list) -> dict:
    return {(cid, k): result["sample"] for cid, k, _, result in ops}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    reference = run.load_json(run.REFERENCE)
    results = []

    text = (run.ROOT / "src" / "eymsym" / "data" / "catalog.txt").read_text()
    broken = text.replace("bracket u1 u3 = e1", "bracket u1 u3 = 2*e1", 1)
    path = run.OUT / "selftest-catalog.txt"
    path.write_text(broken)
    for workload in ("catalog", "cold_report"):
        rec = run.run_pass(workload, 1, 0, False, reference, catalog=str(path))
        failed = sorted({f["case"] for f in rec["failures"]})
        frac = len(rec["failures"]) / len(rec["durations"])
        results.append(check(
            f"corrupted bracket fails {workload}",
            broken != text and failed == [CORRUPTED_CASE],
            f"failed_frac {frac:.4f}, failed {failed}, "
            f"reasons {[f['reason'] for f in rec['failures']]}"))

    tampered = copy.deepcopy(reference)
    tampered[TAMPERED_CASE]["scalar"] = "(" + reference[TAMPERED_CASE]["scalar"] + ")/2"
    rec = run.run_pass("catalog", 1, 0, False, tampered)
    caught = [(f["case"], f["reason"]) for f in rec["failures"]]
    results.append(check(
        "tampered reference caught",
        caught == [(TAMPERED_CASE, "scalar differs from the reference")],
        f"failures {caught}"))

    for workload in ("catalog", "crosscheck"):
        ops_a, counts_a = worker_pass(workload, 7, 0, hash_seed=1)
        ops_b, counts_b = worker_pass(workload, 7, 1, hash_seed=2)
        results.append(check(f"{workload} counts repeat", counts_a == counts_b,
                             f"{counts_a} / {counts_b}"))
    first, second = samples(ops_a), samples(ops_b)
    other = samples(worker_pass("crosscheck", 8, 0, hash_seed=1)[0])
    results.append(check(
        "same seed, same sample points", first == second and other != first,
        f"{len(first)} points per pass; seed 8 differs at "
        f"{sum(other[key] != first[key] for key in first)} of them"))

    recs = [run.run_pass("cold_report", 7, k, True, reference) for k in (0, 1)]
    counts = [{name: run.layer_values(r)[name] for name in COUNTS}
              for r in recs]
    results.append(check("cold_report counts repeat", counts[0] == counts[1],
                         f"{counts[0]} / {counts[1]}"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
