#!/usr/bin/env sh
# bench_check.sh — performance regression gate for the sweep engine.
#
# Runs bench_sweep_json and fails (exit 1) if the fresh single-thread
# runs_per_sec falls more than TOLERANCE below the committed
# BENCH_sweep.json baseline. Wired as the ctest `bench_check` with label
# `perf` (CONFIGURATIONS perf, so the default tier-1 `ctest` run skips it;
# run it with `ctest -C perf` or directly).
#
# A second gate rides along, with an explicit SKIP path so a missing
# comparison never silently passes: parallel speedup (best rung vs 1
# thread) — SKIPPED with a message when the fresh run reports
# ladder_collapsed (a 1-core machine has one rung, so there is no
# parallel speedup to compare).
#
#   scripts/bench_check.sh <bench_sweep_json-binary> <baseline.json> [tolerance]
#
# tolerance is the allowed fractional regression (default 0.10 = 10%).
# Precedence: positional argument > FTMAO_BENCH_TOLERANCE environment
# variable > default — so CI can loosen the gate on noisy shared runners
# (FTMAO_BENCH_TOLERANCE=0.25 ctest -C perf) without editing the ctest
# registration.

set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <bench_sweep_json-binary> <baseline.json> [tolerance]" >&2
  exit 2
fi

BENCH_BIN=$1
BASELINE=$2
TOLERANCE=${3:-${FTMAO_BENCH_TOLERANCE:-0.10}}

if [ ! -x "$BENCH_BIN" ]; then
  echo "bench_check: bench binary not found or not executable: $BENCH_BIN" >&2
  exit 2
fi
if [ ! -f "$BASELINE" ]; then
  echo "bench_check: baseline not found: $BASELINE" >&2
  exit 2
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_check: python3 not found (needed to compare the JSONs)" >&2
  exit 2
fi

# Plain mktemp: the GNU suffix-template form (prefix.XXXXXX.json) is not
# portable to BSD/busybox mktemp, and the bench binary does not care about
# the extension.
FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT

echo "bench_check: running $BENCH_BIN ..."
"$BENCH_BIN" --out "$FRESH" > /dev/null

python3 - "$BASELINE" "$FRESH" "$TOLERANCE" <<'EOF'
import json
import sys

baseline_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])


def load(path):
    with open(path) as handle:
        return json.load(handle)


def single_thread_runs_per_sec(doc, path):
    for entry in doc["results"]:
        if entry["threads"] == 1:
            return float(entry["runs_per_sec"])
    raise SystemExit(f"bench_check: no threads=1 entry in {path}")


baseline_doc = load(baseline_path)
fresh_doc = load(fresh_path)
failed = False

baseline = single_thread_runs_per_sec(baseline_doc, baseline_path)
fresh = single_thread_runs_per_sec(fresh_doc, fresh_path)
floor = baseline * (1.0 - tolerance)

print(f"bench_check: baseline {baseline:.1f} runs/sec, fresh {fresh:.1f} "
      f"runs/sec, floor {floor:.1f} (tolerance {tolerance:.0%})")
if fresh < floor:
    print("bench_check: FAIL — single-thread sweep throughput regressed")
    failed = True

# Parallel-speedup gate: the best-rung-vs-1-thread ratio must not decay.
# A collapsed ladder (1-core machine: one rung) has no parallel speedup
# to measure, so the gate is skipped — explicitly, never silently.
collapsed = bool(
    fresh_doc.get("ladder_collapsed", len(fresh_doc["results"]) == 1))
if collapsed:
    print("bench_check: SKIP parallel-speedup gate — thread ladder "
          "collapsed to a single rung (1-core machine)")
else:
    base_speedup = float(baseline_doc.get("speedup", 1.0))
    fresh_speedup = float(fresh_doc.get("speedup", 1.0))
    speedup_floor = base_speedup * (1.0 - tolerance)
    print(f"bench_check: parallel speedup baseline {base_speedup:.2f}x, "
          f"fresh {fresh_speedup:.2f}x, floor {speedup_floor:.2f}x")
    if fresh_speedup < speedup_floor:
        print("bench_check: FAIL — parallel speedup regressed")
        failed = True

if failed:
    raise SystemExit(1)
delta = (fresh - baseline) / baseline
print(f"bench_check: OK ({delta:+.1%} vs baseline)")
EOF
