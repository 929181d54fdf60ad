#!/usr/bin/env python3
"""Steadiness report: runs workloads K times and prints, per metric, the
median, the quartiles and the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles).
Every end-to-end metric whose spread exceeds its bound in
BENCHMARK.json is flagged; one whose spread exceeds a third of its
bound is marked as close. This is the A/A check for the benchmark.

Run from the repository root:

    python3 perfbench/steady.py --workload miss-mixed --runs 5
    python3 perfbench/steady.py --runs 10            # every workload
    python3 perfbench/steady.py --workload hit-binary --runs 4 --same-seed

Seeds are first-seed, first-seed + 1, ... unless --same-seed repeats
first-seed, in which case metrics that must be a pure function of the
seed (ratio_mean, bound_held_share) are also checked for equality.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

DETERMINISTIC = ("ratio_mean", "bound_held_share", "ok_share")


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default every workload)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--verbose", action="store_true", help="print each run's report")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed if args.same_seed else args.first_seed + i
            started = time.monotonic()
            result, stderr = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            ok = "ok" if result["correct"] and result["failed"] == 0 else "NOT CORRECT"
            print(f"{workload} seed {seed}: {ok}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {time.monotonic() - started:.1f} s wall",
                  flush=True)
            if args.verbose:
                print(stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    mark = "FLAG: spread exceeds bound"
                    flagged += 1
                elif spread > bound / 3:
                    mark = "close: over a third of the bound"
            if args.same_seed and name in DETERMINISTIC and len(set(values)) > 1:
                mark += " FLAG: differs across runs of one seed"
                flagged += 1
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:<32} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
                  f"{bound_text} {unit} {mark}")
        print()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
