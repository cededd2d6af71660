#!/usr/bin/env python3
"""Benchmark entry point for the Kompics runtime and CATS.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-latency --seed 1 --seconds 10 --trace 0

On first use it builds perfbench_driver (CMake, Release) from perfbench/ and
src/ into .bench_build/perfbench, then runs the workload. It prints a
readable summary and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer ones.
The full report of every run, with its run context, is written to
.bench_build/perfbench/results/. It exits non-zero when a correctness check
fails or a metric is missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the driver; output goes to a log file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs],
    ]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                fail("build failed: " + " ".join(cmd) + " (see " + log_path + ")")


def load_avg_1m():
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    load_before = load_avg_1m()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    load_after = load_avg_1m()
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("driver printed no report (exit code %d)" % proc.returncode)
    report = json.loads(lines[-1])

    report["context"].update({
        "seed": args.seed,
        "load_avg_1m_before": load_before,
        "load_avg_1m_after": load_after,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print("workload %s  seed %d  seconds %g  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("context  " + json.dumps(report["context"], sort_keys=True))
    for check, ok in sorted(report["checks"].items()):
        print("check    %-24s %s" % (check, "ok" if ok else "FAILED"))
    ratio = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print("ops      attempted %d  failed %d  ops_failed_ratio %.6g ratio" %
          (report["attempted"], report["failed"], ratio))
    for key, value in sorted(report["counts"].items()):
        print("count    %-34s %.6g" % (key, value if value is not None else float("nan")))
    for key, m in sorted(report["metrics"].items()):
        print("metric   %-40s %.6g %s" % (key, m["value"], m["unit"]))
    for key, note in sorted(report["notes"].items()):
        print("note     %-24s %s" % (key, note))

    metrics = {}
    missing = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        fail("metrics missing or with the wrong unit: " + ", ".join(missing))
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
