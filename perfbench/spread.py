#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sim-ring --runs 10 --seconds 10

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, per metric, the median and the quartile spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json. A spread above the bound means
the benchmark cannot resolve a change of that size. Raw results are appended
to .bench_build/perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    log_path = os.path.join(ROOT, ".bench_build", "perfbench", "spread.jsonl")
    worst = 0.0
    for workload in args.workload:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed (exit %d):\n%s" % (workload, seed, proc.returncode,
                                                          proc.stderr[-2000:]))
                sys.exit(1)
            result = json.loads(lines[-1])
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                      "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d  %.0f s  failed %d/%d" % (workload, seed, wall, result["failed"],
                                                       result["attempted"]), flush=True)
        print("%-14s %-14s %12s %8s %8s" % ("workload", "metric", "median", "spread", "bound"))
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-14s %-14s %12.6g %8.3f %8.3f" % (workload, name, med, spread, bounds[name]))
    print("worst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
