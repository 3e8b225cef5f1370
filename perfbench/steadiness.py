#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the benchmark command untraced, for run_seconds, several times per
workload, each run with another seed, and reports for every end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4))
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads serve-durable --runs 5
    python3 perfbench/steadiness.py --runs 10 --record perfbench/steadiness.json

With --record, the per-workload medians, quartiles and spreads are
written to the given file together with each metric's unit, direction
and bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    catalog = bench["end_to_end"]

    record = {"runs": args.runs, "first_seed": args.first_seed, "run_seconds": seconds,
              "workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in catalog}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(bench["command"], workload, seed, seconds)
            walls.append(wall)
            for m in catalog:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        print(f"== {workload}: {args.runs} runs, run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        rows = {}
        for m in catalog:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": bound,
                "median": med, "q1": q1, "q3": q3, "spread": spread,
            }
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {m['name']:<14} median {med:.6g} {m['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.3f} (bound {bound}, bound/3 {bound / 3:.3f}) {flag}")
        record["workloads"][workload] = {
            "run_wall_median_s": statistics.median(walls), "metrics": rows,
        }
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
