#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload, both passes.

    python3 perfbench/selftest.py

Checks, for each workload and for --trace 0 and 1, that run.py exits 0 and
that its last line holds exactly correct/attempted/failed/metrics, with every
metric BENCHMARK.json names for that pass present with its unit, every
correctness check of the workload run and passed, and no op failed. It also
checks that sim-ring's event rate repeats exactly for a repeated seed, and
that run.py fails without printing a result when the runtime sources are
missing. Takes about three minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
SECONDS = {"kv-latency": 2, "kv-throughput": 2, "sim-ring": 5}
CHECKS = {
    "kv-latency": {"readiness_gate", "ops_completed", "get_returns_last_put"},
    "kv-throughput": {"readiness_gate", "ops_completed", "get_returns_own_key"},
    "sim-ring": {"readiness_gate", "ops_completed", "get_returns_own_key", "linearizable",
                 "invariants"},
}

failures = []


def expect(ok, what):
    print(("ok      " if ok else "FAILED  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS[workload]), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def full_report(workload, seed, trace):
    path = os.path.join(ROOT, ".bench_build", "perfbench", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seed = 7
    for w in spec["workloads"]:
        workload = w["name"]
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            proc = run(workload, seed, trace)
            expect(proc.returncode == 0, tag + ": exit code 0 (got %d)" % proc.returncode)
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   tag + ": result keys")
            expect(last["correct"] is True, tag + ": correct")
            expect(last["attempted"] >= 1 and last["failed"] == 0,
                   tag + ": %d attempted, %d failed" % (last["attempted"], last["failed"]))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = last["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"] and
                       isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                       tag + ": metric %s [%s]" % (m["name"], m["unit"]))
            expect(set(last["metrics"]) == {m["name"] for m in wanted}, tag + ": no extra metrics")
            report = full_report(workload, seed, trace)
            ran = set(report["checks"])
            expect(ran == CHECKS[workload] and all(report["checks"].values()),
                   tag + ": checks ran and passed: " + ", ".join(sorted(ran)))

    # The simulator is deterministic: the same seed gives the same event rate.
    rates = []
    for _ in range(2):
        proc = run("sim-ring", 11, 1)
        if proc.returncode == 0:
            rates.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                         ["sim.events_per_virtual_s"]["value"])
    expect(len(rates) == 2 and rates[0] == rates[1],
           "sim-ring: sim.events_per_virtual_s repeats for one seed: %s" % rates)

    # Without the runtime sources the benchmark must fail and print no result.
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    proc = run("kv-latency", 1, 0, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "bare directory: non-zero exit (%d) and no result" % proc.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
