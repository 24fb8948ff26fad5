"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py `--runs` times per workload (default: every workload
of BENCHMARK.json), each with another seed and the `run_seconds` of
BENCHMARK.json, and prints per metric the median, the quartiles and the
spread (q3 - q1) / median, next to the metric's bound.  All runs go to
.perfbench_out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    out = {}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"][1:] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run([sys.executable] + cmd, cwd=ROOT, check=True,
                                  capture_output=True, text=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if not runs[-1]["correct"]:
                print(f"{workload} seed {seed}: {runs[-1]['failed']} failed")
        stats = {}
        print(f"\n{workload} ({args.runs} runs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            q1, med, q3 = statistics.quantiles(
                [r["metrics"][name]["value"] for r in runs], n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "unit": metric["unit"]}
            if name != "setup_s":
                worst = max(worst, stats[name]["spread"] / metric["bound"])
            print(f"  {name:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {stats[name]['spread']:7.2%}  "
                  f"bound {metric['bound']:.0%}")
        out[workload] = {"stats": stats, "runs": runs}
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "spread.json").write_text(
        json.dumps(out, indent=1) + "\n")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
