"""eymsym benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

Runs one workload of BENCHMARK.json against `src/` of the checkout it sits
in, checks every operation's output, prints a summary, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are the
per-layer ones, from spans recorded by perfbench/spans.py in every second
pass.  Details of each run go to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import spans
from worker import case_order, checked_fields

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).with_name("worker.py")
REFERENCE = Path(__file__).with_name("reference.json")
WORKLOADS = ("catalog", "crosscheck", "cold_report")
POINTS = 4          # crosscheck: sample points per case and pass
PROBES = 5          # cold_report: start-up probes per pass
TIMEOUT_S = 120     # one child process
PROBE = "import time, eymsym.cli; print(time.monotonic())"


class BenchError(RuntimeError):
    """A child process of the benchmark failed outside any operation."""


def hash_seed(*parts) -> int:
    """PYTHONHASHSEED of one child process, derived from the workload seed."""
    return zlib.crc32("/".join(map(str, parts)).encode())


def _spawn(args: list, seed: int) -> tuple:
    """Run one child to exit: (launch time, seconds to exit, completed proc)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(seed))
    launch = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True,
                          timeout=TIMEOUT_S)
    return launch, time.monotonic() - launch, proc


def _last_json(proc, what: str) -> dict:
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"{what} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# -- correctness ----------------------------------------------------------------


def report_failure(fields: dict, expected: dict) -> str | None:
    """Why a report disagrees with the reference, or None."""
    if "error" in fields:
        return fields["error"]
    false = sorted(k for k, ok in fields["golden_flags"].items() if not ok)
    if false:
        return "golden flag false: " + ", ".join(false)
    for key, value in expected.items():
        if fields.get(key) != value:
            return f"{key} differs from the reference"
    return None


def cold_failure(exit_code: int, stdout: str, expected: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        fields = checked_fields(json.loads(stdout))
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    return report_failure(fields, expected)


def crosscheck_failure(result: dict) -> str | None:
    if "error" in result:
        return result["error"]
    if result["problems"]:
        return "crosscheck: " + "; ".join(result["problems"])
    if result["lorentz"] and result["lorentz"][0] != result["lorentz"][1]:
        return "Lorentz verdict %s, recorded condition %s" % tuple(
            result["lorentz"])
    return None


# -- passes ---------------------------------------------------------------------


def run_pass(workload: str, seed: int, index: int, traced: bool,
             reference: dict, catalog: str | None = None) -> dict:
    """One pass: every catalog case once (crosscheck: POINTS times each).

    Returns set-up seconds, per-operation seconds, failures, the hash seeds
    of the child processes and, when traced, the span summary of the pass.
    """
    record = {"pass": index, "traced": traced, "setup_s": [], "import_s": [],
              "durations": [], "failures": [], "hash_seeds": [],
              "layers": None}
    if workload == "cold_report":
        _cold_pass(record, seed, index, traced, reference, catalog)
        return record
    spec = {"workload": workload, "seed": seed, "pass": index,
            "trace": traced, "points": POINTS, "catalog": catalog}
    h = hash_seed(seed, index)
    launch, _, proc = _spawn([sys.executable, str(WORKER), json.dumps(spec)], h)
    doc = _last_json(proc, f"{workload} worker")
    record["hash_seeds"].append(h)
    record["setup_s"].append(doc["ready"] - launch)
    record["import_s"].append(doc["import_s"])
    for cid, k, dt, result in doc["ops"]:
        if workload == "catalog":
            reason = report_failure(result, reference[cid])
        else:
            reason = crosscheck_failure(result)
        record["durations"].append(dt)
        if reason:
            record["failures"].append({"case": cid, "k": k, "hash_seed": h,
                                       "reason": reason,
                                       "sample": result.get("sample")})
    if traced:
        record["layers"] = spans.summarize(doc["spans"])
    return record


def _cold_pass(record: dict, seed: int, index: int, traced: bool,
               reference: dict, catalog: str | None) -> None:
    if not traced:
        for j in range(PROBES):
            h = hash_seed(seed, index, "probe", j)
            launch, _, proc = _spawn([sys.executable, "-c", PROBE], h)
            record["setup_s"].append(_last_json(proc, "start-up probe") - launch)
            record["hash_seeds"].append(h)
    summaries = []
    for n, cid in enumerate(case_order(list(reference), seed, index)):
        h = hash_seed(seed, index, n)
        if traced:
            spec = {"workload": "cold", "case": cid, "catalog": catalog,
                    "trace": True}
            _, dt, proc = _spawn(
                [sys.executable, str(WORKER), json.dumps(spec)], h)
            doc = _last_json(proc, "traced cold_report operation")
            exit_code, stdout = doc["exit"], doc["stdout"]
            record["import_s"].append(doc["import_s"])
            summaries.append(spans.summarize(doc["spans"]))
        else:
            argv = [sys.executable, "-m", "eymsym.cli"]
            if catalog:
                argv += ["--catalog", catalog]
            _, dt, proc = _spawn(argv + ["report", cid, "--format", "json"], h)
            exit_code, stdout = proc.returncode, proc.stdout.decode()
        record["durations"].append(dt)
        record["hash_seeds"].append(h)
        reason = cold_failure(exit_code, stdout, reference[cid])
        if reason:
            record["failures"].append({"case": cid, "k": 0, "hash_seed": h,
                                       "reason": reason, "sample": None})
    if traced:
        record["layers"] = spans.merge(summaries)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> list:
    """Whole passes until the next one would end after `seconds`.

    With tracing, passes alternate untraced and traced, starting untraced.
    """
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, len(passes), traced, reference))
        done = len(passes)
        elapsed = time.monotonic() - start
        if done >= (2 if trace else 1) and elapsed * (done + 1) / done > seconds:
            return passes


# -- metrics --------------------------------------------------------------------


def _rate(passes: list) -> float:
    """Median over passes of completed operations per timed second."""
    return statistics.median(
        (len(p["durations"]) - len(p["failures"])) / sum(p["durations"])
        for p in passes)


def end_to_end(passes: list) -> dict:
    """Medians over passes, so a burst of load on the host moves one pass."""
    deciles = [statistics.quantiles(p["durations"], n=10) for p in passes]
    attempted = sum(len(p["durations"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
        "ops_per_s": _rate(passes),
        "op_p50_s": statistics.median(d[4] for d in deciles),
        "op_p90_s": statistics.median(d[8] for d in deciles),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def layer_values(record: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    layers = record["layers"]
    out = {}
    for name, row in layers.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    gcd = layers["exact.poly_gcd"]
    out["exact.poly_gcd.nontrivial_frac"] = (
        gcd["value"] / gcd["calls"] if gcd["calls"] else 0.0)
    out["linalg.rref.entries"] = layers["linalg.rref"]["value"]
    load = layers["liecat.catalog_load"]
    out["liecat.catalog_load.self_s"] = load["self_all_s"] / load["calls_all"]
    out["cli.import_s"] = statistics.mean(record["import_s"])
    return out


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass = [layer_values(p) for p in traced]
    out = {key: statistics.median(v[key] for v in per_pass)
           for key in per_pass[0]}
    out["trace.overhead_frac"] = 1 - _rate(traced) / _rate(
        [p for p in passes if not p["traced"]])
    return out


# -- environment and entry point -------------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "executable": sys.executable,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(),
            "loadavg_start": os.getloadavg(),
            "platform": platform.platform()}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eymsym" / "cli.py").is_file():
        print(f"error: no eymsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(REFERENCE)
    env = environment()
    # compile the bytecode cache once, so no timed process pays for it
    _spawn([sys.executable, "-c", "import eymsym.cli"], 0)

    passes = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), reference)
    if args.trace:
        values, wanted = per_layer(passes), bench["per_layer"]
    else:
        values, wanted = end_to_end(passes), bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(len(p["durations"]) for p in passes)
    failures = [dict(f, **{"pass": p["pass"]})
                for p in passes for f in p["failures"]]
    env["hash_seeds"] = {p["pass"]: p["hash_seeds"] for p in passes}

    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(
        {"args": vars(args), "env": env, "metrics": metrics,
         "failures": failures, "passes": passes}, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations {attempted}  failed {len(failures)} "
          f"(failed_frac {len(failures) / attempted:.4g})")
    for f in failures:
        print(f"FAIL {args.workload} seed={args.seed} pass={f['pass']} "
              f"case={f['case']} point={f['k']} hashseed={f['hash_seed']} "
              f"sample={f['sample']}: {f['reason']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env))
    print(f"detail {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
