#!/usr/bin/env bash
# Pub-sub hot-path benchmark driver.
#
# Runs bench_core_pubsub (dispatch/fan-out/channel-chain/trigger-burst
# microbenchmarks) and bench_a2_multicore (ping-pong round-trip scaling) from
# a build tree and emits a single JSON summary, optionally comparing against
# a previously captured baseline produced by this same script.
#
# Usage:
#   scripts/bench_pubsub.sh [BUILD_DIR] [OUT_JSON] [BASELINE_JSON]
#
#   BUILD_DIR      build tree containing bench/ binaries   (default: build)
#   OUT_JSON       output path                             (default: BENCH_pubsub.json)
#   BASELINE_JSON  earlier OUT_JSON to embed as "before"   (default: none)
#
# Typical PR workflow:
#   git stash / checkout the pre-change tree && build
#   scripts/bench_pubsub.sh build /tmp/pubsub_before.json
#   checkout the change && build
#   scripts/bench_pubsub.sh build BENCH_pubsub.json /tmp/pubsub_before.json
#
# Telemetry overhead mode:
#   scripts/bench_pubsub.sh --telemetry [BUILD_DIR] [OUT_JSON] [BASELINE_JSON]
#
# Runs bench_core_pubsub three times — KOMPICS_TELEMETRY=off (compiled in,
# all gates cold), sampled (metrics + recorder + 1% trace sampling), and
# full (100% sampling) — and emits OUT_JSON (default: BENCH_telemetry.json)
# with per-benchmark overhead ratios. If BASELINE_JSON (a BENCH_pubsub.json
# captured on a tree *without* the telemetry hooks) is given, the disabled
# path is compared against it and the ≤3% overhead budget is enforced:
# exit 1 when the geometric-mean slowdown of "off" exceeds 3%.
#
# Coroutine-layer overhead mode:
#   scripts/bench_pubsub.sh --protocol [BUILD_DIR] [OUT_JSON] [BASELINE_JSON]
#
# Runs the BM_DispatchHandlers family and pairs each plain run against its
# BM_DispatchHandlersProto twin — identical dispatch path, but the subscriber
# carries a live coroutine frame (ProtocolHost + hidden resume port +
# correlation subscription). Both sides run in the same process on the same
# machine, so the ratio isolates the protocol layer's tax on non-coroutine
# dispatch. Each benchmark runs PROTOCOL_REPETITIONS times, randomly
# interleaved with the others, and is judged by its median: one noisy run
# cannot flip the gate. The ≤3% budget (geomean over the benchmarks of
# median plain / median proto ≤ 1.03) is enforced with exit 1. Writes
# OUT_JSON (default: BENCH_protocol.json). If BASELINE_JSON
# (a BENCH_pubsub.json from a pre-coroutine tree) is given, the plain run is
# also compared against it — informational, since absolute throughput is not
# comparable across machines.

set -euo pipefail

# Repetitions per benchmark in --protocol mode (see above).
PROTOCOL_REPETITIONS=5

if [[ "${1:-}" == "--protocol" ]]; then
  shift
  BUILD_DIR="${1:-build}"
  OUT_JSON="${2:-BENCH_protocol.json}"
  BASELINE_JSON="${3:-}"
  MIN_TIME="${BENCH_MIN_TIME:-0.2}"
  PUBSUB_BIN="$BUILD_DIR/bench/bench_core_pubsub"
  if [[ ! -x "$PUBSUB_BIN" ]]; then
    echo "error: $PUBSUB_BIN not found (build the '$BUILD_DIR' tree first)" >&2
    exit 1
  fi
  tmp_json="$(mktemp)"
  trap 'rm -f "$tmp_json"' EXIT
  echo "[bench_pubsub] protocol-layer overhead (min_time=$MIN_TIME," \
    "$PROTOCOL_REPETITIONS interleaved repetitions)..." >&2
  KOMPICS_TELEMETRY=off "$PUBSUB_BIN" --benchmark_format=json \
    --benchmark_filter='BM_DispatchHandlers(Proto)?/' \
    --benchmark_repetitions="$PROTOCOL_REPETITIONS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_min_time="$MIN_TIME" >"$tmp_json"
  python3 - "$tmp_json" "$OUT_JSON" "$BASELINE_JSON" "$PROTOCOL_REPETITIONS" <<'PY'
import json, math, statistics, subprocess, sys

bench_path, out_path, baseline_path, repetitions = sys.argv[1:5]

raw = json.load(open(bench_path))
samples = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "aggregate":
        samples.setdefault(b["run_name"], []).append(b)
# Each benchmark is represented by the median of its repetitions.
runs = {
    name: {
        "real_time_ns": statistics.median(b.get("real_time") for b in reps),
        "items_per_second": statistics.median(b.get("items_per_second", 0) for b in reps),
        "items_per_second_runs": [b.get("items_per_second") for b in reps],
    }
    for name, reps in samples.items()
}

plain = {n: r for n, r in runs.items() if n.startswith("BM_DispatchHandlers/")}
proto = {n.replace("Proto", "", 1): r for n, r in runs.items()
         if n.startswith("BM_DispatchHandlersProto/")}

overhead = {}
for name, p in plain.items():
    q = proto.get(name)
    if q and p.get("items_per_second") and q.get("items_per_second"):
        overhead[name] = round(p["items_per_second"] / q["items_per_second"], 3)
if not overhead:
    print("error: no plain/proto benchmark pairs found", file=sys.stderr)
    sys.exit(1)

def geomean(ratios):
    vals = [v for v in ratios.values() if v > 0]
    return round(math.exp(sum(math.log(v) for v in vals) / len(vals)), 4) if vals else None

gm = geomean(overhead)
ok = gm is not None and gm <= 1.03

try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
except OSError:
    rev = None

result = {
    "schema": "kompics-bench-protocol-v2",
    "context": {
        "date": raw.get("context", {}).get("date"),
        "host": raw.get("context", {}).get("host_name"),
        "num_cpus": raw.get("context", {}).get("num_cpus"),
        "git_rev": rev,
    },
    "plain": plain,
    "proto": {("BM_DispatchHandlersProto/" + n.split("/", 1)[1]): r
              for n, r in proto.items()},
    "overhead_proto_vs_plain": overhead,
    "geomean_proto_vs_plain": gm,
    "repetitions": int(repetitions),
    "protocol_overhead_budget": {"limit": 1.03, "ok": ok},
}

if baseline_path:
    base = json.load(open(baseline_path))
    base_micro = base.get("bench_core_pubsub", {})
    vs_base = {}
    for name, cur in plain.items():
        old = base_micro.get(name)
        if old and old.get("items_per_second") and cur.get("items_per_second"):
            vs_base[name] = round(old["items_per_second"] / cur["items_per_second"], 3)
    result["overhead_plain_vs_baseline"] = vs_base
    result["geomean_plain_vs_baseline"] = geomean(vs_base)

json.dump(result, open(out_path, "w"), indent=2)
print(f"[bench_pubsub] wrote {out_path}")
for name in sorted(overhead):
    print(f"  {name}: {overhead[name]}x proto/plain (median of {repetitions})")
print(f"  geomean proto/plain: {gm}x (budget 1.03x: {'OK' if ok else 'EXCEEDED'})")
if result.get("geomean_plain_vs_baseline") is not None:
    print(f"  geomean vs checked-in baseline: {result['geomean_plain_vs_baseline']}x "
          f"(informational; baseline machine differs)")
sys.exit(0 if ok else 1)
PY
  exit $?
fi

if [[ "${1:-}" == "--telemetry" ]]; then
  shift
  BUILD_DIR="${1:-build}"
  OUT_JSON="${2:-BENCH_telemetry.json}"
  BASELINE_JSON="${3:-}"
  MIN_TIME="${BENCH_MIN_TIME:-0.2}"
  PUBSUB_BIN="$BUILD_DIR/bench/bench_core_pubsub"
  if [[ ! -x "$PUBSUB_BIN" ]]; then
    echo "error: $PUBSUB_BIN not found (build the '$BUILD_DIR' tree first)" >&2
    exit 1
  fi
  tmp_off="$(mktemp)"; tmp_sampled="$(mktemp)"; tmp_full="$(mktemp)"
  trap 'rm -f "$tmp_off" "$tmp_sampled" "$tmp_full"' EXIT
  for mode in off sampled full; do
    echo "[bench_pubsub] telemetry=$mode (min_time=$MIN_TIME)..." >&2
    out_var="tmp_$mode"
    KOMPICS_TELEMETRY="$mode" "$PUBSUB_BIN" --benchmark_format=json \
      --benchmark_min_time="$MIN_TIME" >"${!out_var}"
  done
  python3 - "$tmp_off" "$tmp_sampled" "$tmp_full" "$OUT_JSON" "$BASELINE_JSON" <<'PY'
import json, math, subprocess, sys

off_path, sampled_path, full_path, out_path, baseline_path = sys.argv[1:6]

def load(path):
    raw = json.load(open(path))
    return raw, {
        b["name"]: {
            "real_time_ns": b.get("real_time"),
            "items_per_second": b.get("items_per_second"),
        }
        for b in raw.get("benchmarks", [])
        if b.get("run_type") != "aggregate"
    }

raw_off, off = load(off_path)
_, sampled = load(sampled_path)
_, full = load(full_path)

def overhead(base, other):
    """Per-benchmark slowdown of `other` relative to `base` (1.0 = equal)."""
    out = {}
    for name, b in base.items():
        o = other.get(name)
        if o and b.get("items_per_second") and o.get("items_per_second"):
            out[name] = round(b["items_per_second"] / o["items_per_second"], 3)
    return out

def geomean(ratios):
    vals = [v for v in ratios.values() if v > 0]
    return round(math.exp(sum(math.log(v) for v in vals) / len(vals)), 4) if vals else None

try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
except OSError:
    rev = None

result = {
    "schema": "kompics-bench-telemetry-v1",
    "context": {
        "date": raw_off.get("context", {}).get("date"),
        "host": raw_off.get("context", {}).get("host_name"),
        "num_cpus": raw_off.get("context", {}).get("num_cpus"),
        "git_rev": rev,
    },
    "modes": {"off": off, "sampled": sampled, "full": full},
    "overhead_sampled_vs_off": overhead(off, sampled),
    "overhead_full_vs_off": overhead(off, full),
}
result["geomean_sampled_vs_off"] = geomean(result["overhead_sampled_vs_off"])
result["geomean_full_vs_off"] = geomean(result["overhead_full_vs_off"])

budget_ok = None
if baseline_path:
    base = json.load(open(baseline_path))
    base_micro = base.get("bench_core_pubsub") or {
        b["name"]: {
            "real_time_ns": b.get("real_time"),
            "items_per_second": b.get("items_per_second"),
        }
        for b in base.get("benchmarks", [])
    }
    result["overhead_off_vs_baseline"] = overhead(base_micro, off)
    gm = geomean(result["overhead_off_vs_baseline"])
    result["geomean_off_vs_baseline"] = gm
    budget_ok = gm is not None and gm <= 1.03
    result["disabled_overhead_budget"] = {"limit": 1.03, "ok": budget_ok}

json.dump(result, open(out_path, "w"), indent=2)
print(f"[bench_pubsub] wrote {out_path}")
print(f"  geomean sampled/off: {result['geomean_sampled_vs_off']}x")
print(f"  geomean full/off:    {result['geomean_full_vs_off']}x")
if budget_ok is not None:
    print(f"  geomean off/baseline: {result['geomean_off_vs_baseline']}x "
          f"(budget 1.03x: {'OK' if budget_ok else 'EXCEEDED'})")
    sys.exit(0 if budget_ok else 1)
PY
  exit $?
fi

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_pubsub.json}"
BASELINE_JSON="${3:-}"
MIN_TIME="${BENCH_MIN_TIME:-0.2}"

PUBSUB_BIN="$BUILD_DIR/bench/bench_core_pubsub"
A2_BIN="$BUILD_DIR/bench/bench_a2_multicore"
for bin in "$PUBSUB_BIN" "$A2_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable (build the '$BUILD_DIR' tree first)" >&2
    exit 1
  fi
done

tmp_pubsub="$(mktemp)"
tmp_a2="$(mktemp)"
trap 'rm -f "$tmp_pubsub" "$tmp_a2"' EXIT

echo "[bench_pubsub] running bench_core_pubsub (min_time=$MIN_TIME)..." >&2
"$PUBSUB_BIN" --benchmark_format=json --benchmark_min_time="$MIN_TIME" >"$tmp_pubsub"

echo "[bench_pubsub] running bench_a2_multicore..." >&2
"$A2_BIN" >"$tmp_a2"

python3 - "$tmp_pubsub" "$tmp_a2" "$OUT_JSON" "$BASELINE_JSON" <<'PY'
import json, re, subprocess, sys

pubsub_path, a2_path, out_path, baseline_path = sys.argv[1:5]

raw = json.load(open(pubsub_path))
micro = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    micro[b["name"]] = {
        "real_time_ns": b.get("real_time"),
        "items_per_second": b.get("items_per_second"),
    }

a2 = {}
for line in open(a2_path):
    m = re.match(r"\s*(\d+)\s+(\d+)\s+[\d.]+x\s*$", line)
    if m:
        a2[f"workers_{m.group(1)}"] = {"round_trips_per_second": int(m.group(2))}

try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
except OSError:
    rev = None

result = {
    "schema": "kompics-bench-pubsub-v1",
    "context": {
        "date": raw.get("context", {}).get("date"),
        "host": raw.get("context", {}).get("host_name"),
        "num_cpus": raw.get("context", {}).get("num_cpus"),
        "git_rev": rev,
    },
    "bench_core_pubsub": micro,
    "bench_a2_multicore": a2,
}

if baseline_path:
    base = json.load(open(baseline_path))
    # Accept either a previous output of this script or a raw
    # google-benchmark JSON dump as the baseline.
    if "bench_core_pubsub" in base:
        base_micro = base["bench_core_pubsub"]
        base_a2 = base.get("bench_a2_multicore", {})
    else:
        base_micro = {
            b["name"]: {
                "real_time_ns": b.get("real_time"),
                "items_per_second": b.get("items_per_second"),
            }
            for b in base.get("benchmarks", [])
        }
        base_a2 = {}
    result["baseline"] = {
        "bench_core_pubsub": base_micro,
        "bench_a2_multicore": base_a2,
    }
    speedups = {}
    for name, cur in micro.items():
        old = base_micro.get(name)
        if old and old.get("items_per_second") and cur.get("items_per_second"):
            speedups[name] = round(cur["items_per_second"] / old["items_per_second"], 3)
    for name, cur in a2.items():
        old = base_a2.get(name)
        if old and old.get("round_trips_per_second"):
            speedups["a2_" + name] = round(
                cur["round_trips_per_second"] / old["round_trips_per_second"], 3)
    result["speedup_vs_baseline"] = speedups

json.dump(result, open(out_path, "w"), indent=2)
print(f"[bench_pubsub] wrote {out_path}")
for name in sorted(result.get("speedup_vs_baseline", {})):
    print(f"  {name}: {result['speedup_vs_baseline'][name]}x")
PY
