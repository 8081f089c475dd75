#!/usr/bin/env sh
# shard_e2e.sh — end-to-end check of sharded sweeps over real subprocesses.
#
# Runs grids once in a single ftmao_sweep process and once through
# `ftmao_fabric --mode local` (one worker per shard, each running its
# shards as `ftmao_sweep --spec <fabric-dir>/grid.json` subprocesses) and
# asserts the merged CSV is byte-identical every time: with an injected
# worker failure that must be retried, on a re-run that resumes the
# finished directory, with forwarded engine flags, on the vector dim
# axis, under --scalar, from a warm cache, on an async grid, and with an
# explicit seed list from a --spec file. Later stages drive the
# multi-worker fabric: a SIGKILLed worker's lease is stolen, workers get
# --spec and no grid flags, flags a mode does not read and malformed
# grids are refused, unusable worker flags and negative counts are
# refused, a hung shard process is killed at --timeout-sec and retried,
# and a local run started by bare name through PATH finds the
# ftmao_sweep beside its executable.
#
# Registered as the ctest `shard_e2e` (label `shard`); also runnable
# directly:
#
#   scripts/shard_e2e.sh <ftmao_sweep> <ftmao_fabric> <workdir>

set -eu

if [ "$#" -ne 3 ]; then
  echo "usage: $0 <ftmao_sweep-binary> <ftmao_fabric-binary> <workdir>" >&2
  exit 2
fi

SWEEP=$1
FABRIC=$2
WORK=$3

if [ ! -x "$SWEEP" ] || [ ! -x "$FABRIC" ]; then
  echo "shard_e2e: sweep or fabric binary missing/not executable" >&2
  exit 2
fi

rm -rf "$WORK"
mkdir -p "$WORK"

# same_csv <expected> <actual> <what>: fails the run unless byte-identical.
same_csv() {
  if ! cmp -s "$1" "$2"; then
    echo "shard_e2e: FAIL — $3 merged CSV differs from single-process CSV" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

# each_manifest_has <fabric-dir> <text> <what>: every shard manifest of
# the directory contains <text>.
each_manifest_has() {
  for MANIFEST in "$1"/results/shard_*[0-9].json; do
    if ! grep -q "$2" "$MANIFEST"; then
      echo "shard_e2e: FAIL — $MANIFEST does not record $3" >&2
      cat "$MANIFEST" >&2
      exit 1
    fi
  done
}

echo "shard_e2e: single-process reference sweep ..."
"$SWEEP" --csv > "$WORK/single.csv"

echo "shard_e2e: 4-shard local run with one injected worker failure ..."
# Shard 1 owns cells of the default grid; its first attempt exits 7 and
# must be retried. Exit status must still be 0 (full recovery).
"$FABRIC" --mode local --fabric-dir "$WORK/local" --worker "$SWEEP" \
  --shards 4 --inject-fail-shard 1 --retries 2 --backoff-ms 50 \
  --out "$WORK/merged.csv" 2> "$WORK/local.log"

if ! grep -q "retrying" "$WORK/local.log"; then
  echo "shard_e2e: FAIL — injected failure did not exercise the retry" \
       "path" >&2
  cat "$WORK/local.log" >&2
  exit 1
fi
same_csv "$WORK/single.csv" "$WORK/merged.csv" "local"

echo "shard_e2e: local re-run on the finished directory resumes ..."
# Every shard is already complete: the re-run claims nothing and merges
# the same bytes again.
"$FABRIC" --mode local --fabric-dir "$WORK/local" --worker "$SWEEP" \
  --shards 4 --out "$WORK/merged_again.csv" 2> "$WORK/local_again.log"
if ! grep -q "local run claimed 0 lease(s)" "$WORK/local_again.log"; then
  echo "shard_e2e: FAIL — the re-run claimed shards again" >&2
  cat "$WORK/local_again.log" >&2
  exit 1
fi
same_csv "$WORK/single.csv" "$WORK/merged_again.csv" "resumed"

echo "shard_e2e: engine-flag forwarding" \
     "(--isa scalar --batch 2 --threads 2) ..."
# Local mode must hand its engine knobs through to the workers: run a
# small grid with a forced backend and assert (a) every worker manifest
# records that backend, and (b) the merged CSV still matches a
# single-process run of the same grid with default engine knobs — the
# engine flags select an implementation, never the output.
GRID="--sizes 7:2,10:3 --seeds 2 --rounds 500"
# shellcheck disable=SC2086  # word-splitting of $GRID is intended
"$SWEEP" $GRID --csv > "$WORK/single_small.csv"
# shellcheck disable=SC2086
"$FABRIC" --mode local --fabric-dir "$WORK/local_fwd" --worker "$SWEEP" \
  $GRID --shards 2 --isa scalar --batch 2 --threads 2 \
  --out "$WORK/merged_fwd.csv" 2> "$WORK/local_fwd.log"
each_manifest_has "$WORK/local_fwd" '"isa": "scalar"' "the forwarded ISA"
same_csv "$WORK/single_small.csv" "$WORK/merged_fwd.csv" "forwarded-flags"

echo "shard_e2e: vector dim axis (--dim 1,4) through local mode ..."
# The --dim grid axis must survive the pin -> worker -> manifest -> merge
# round trip: worker manifests record the full dims axis, and the merged
# CSV is byte-identical to a single-process run of the same grid.
VGRID="--sizes 7:2 --dim 1,4 --seeds 2 --rounds 300"
# shellcheck disable=SC2086  # word-splitting of $VGRID is intended
"$SWEEP" $VGRID --csv > "$WORK/single_vec.csv"
# shellcheck disable=SC2086
"$FABRIC" --mode local --fabric-dir "$WORK/local_vec" --worker "$SWEEP" \
  $VGRID --shards 2 --out "$WORK/merged_vec.csv" 2> "$WORK/local_vec.log"
each_manifest_has "$WORK/local_vec" '"dims": "1,4"' "the dims axis"
same_csv "$WORK/single_vec.csv" "$WORK/merged_vec.csv" "vector-dim"

echo "shard_e2e: scalar reference engine (--scalar) through local mode ..."
# --scalar runs the batched engines' plan in one-replica tasks on the
# reference engines, every (cell, seed) of it. Forwarded to both
# workers, it must merge byte-identical to the single-process batched
# run of the same grid, which runs each seed-free cell (every attack but
# noise) once and fills its other seeds from that run: this checks that
# rule end to end on every attack. The grid's n = 10, d = 3 cells have an
# optimum off the centroid, its delayed strikes sleep through the first
# half (their rows must not repeat pull's), and its noise packs merge F
# per-message rows per recipient at d = 1 and d = 3.
SGRID="--sizes 7:2,10:3 --dim 1,3 \
--attacks none,silent,fixed,split-brain,hull-edge-up,hull-edge-down,\
noise,sign-flip,pull,flip-flop,delayed-strike --seeds 3 --rounds 300"
# shellcheck disable=SC2086  # word-splitting of $SGRID is intended
"$SWEEP" $SGRID --csv > "$WORK/single_mixed.csv"
# shellcheck disable=SC2086
"$FABRIC" --mode local --fabric-dir "$WORK/local_scalar" --worker "$SWEEP" \
  $SGRID --shards 2 --scalar --out "$WORK/merged_scalar.csv" \
  2> "$WORK/local_scalar.log"
same_csv "$WORK/single_mixed.csv" "$WORK/merged_scalar.csv" "--scalar"
# rows_of <csv> <attack>: the rows of <attack>, its name dropped.
rows_of() {
  grep ",$2," "$1" | sed "s/,$2,/,/"
}
if [ "$(rows_of "$WORK/merged_scalar.csv" pull)" = \
     "$(rows_of "$WORK/merged_scalar.csv" delayed-strike)" ]; then
  echo "shard_e2e: FAIL — the delayed-strike rows repeat the pull rows" >&2
  cat "$WORK/merged_scalar.csv" >&2
  exit 1
fi

echo "shard_e2e: cache warm-start (shared --cache-dir across two runs) ..."
# Local mode forwards --cache-dir to every worker, so a second run over
# the same grid must be served from the first run's records: every
# worker reports hits and zero misses, and the merged CSV is still
# byte-identical — the cache can change wall-clock, never output.
CGRID="--sizes 7:2,10:3 --seeds 2 --rounds 400"
# shellcheck disable=SC2086  # word-splitting of $CGRID is intended
"$SWEEP" $CGRID --csv > "$WORK/single_cache.csv"
for RUN in cold warm; do
  # shellcheck disable=SC2086
  "$FABRIC" --mode local --fabric-dir "$WORK/local_$RUN" --worker "$SWEEP" \
    $CGRID --shards 2 --cache-dir "$WORK/cache" \
    --out "$WORK/merged_$RUN.csv" 2> "$WORK/local_$RUN.log"
  same_csv "$WORK/single_cache.csv" "$WORK/merged_$RUN.csv" "$RUN-cache"
done

if [ "$(grep -c "cache: hits=" "$WORK/local_warm.log")" -lt 2 ]; then
  echo "shard_e2e: FAIL — warm workers did not report cache counters" >&2
  cat "$WORK/local_warm.log" >&2
  exit 1
fi
if grep "cache: hits=" "$WORK/local_warm.log" | grep -qv "misses=0 "; then
  echo "shard_e2e: FAIL — a warm worker recomputed cells (misses != 0)" >&2
  cat "$WORK/local_warm.log" >&2
  exit 1
fi
if grep -q "cache: hits=0 " "$WORK/local_warm.log"; then
  echo "shard_e2e: FAIL — a warm worker was not served from the cache" >&2
  cat "$WORK/local_warm.log" >&2
  exit 1
fi

echo "shard_e2e: async grid (--engine async) through local mode ..."
# Manifests record the async engine and its delay model, so async grids
# shard like sync ones and merge byte-identical.
AGRID="--engine async --sizes 6:1,11:2 --seeds 3 --rounds 500"
# shellcheck disable=SC2086  # word-splitting of $AGRID is intended
"$SWEEP" $AGRID --csv > "$WORK/single_async.csv"
# shellcheck disable=SC2086
"$FABRIC" --mode local --fabric-dir "$WORK/local_async" --worker "$SWEEP" \
  $AGRID --shards 3 --out "$WORK/merged_async.csv" 2> "$WORK/local_async.log"
each_manifest_has "$WORK/local_async" '"engine": "async"' "the async engine"
same_csv "$WORK/single_async.csv" "$WORK/merged_async.csv" "async"

echo "shard_e2e: explicit seed list [3, 5] from a --spec file ..."
# Only a spec file can carry seeds other than 1..k. The local run pins
# that list, its workers run it, and the merge matches a single-process
# --spec run; the noise attack makes the seeds visible in the bytes.
SPEC="$WORK/spec_seeds35.json"
cat > "$SPEC" <<'JSON'
{
  "grid": {
    "sizes": "7:2,10:3",
    "dims": "1",
    "attacks": "noise,split-brain",
    "seeds": [3, 5],
    "rounds": 300,
    "spread": 8,
    "step": "harmonic:1:0.75",
    "engine": "sync",
    "delay": "uniform",
    "delay_lo": 0.5,
    "delay_hi": 1.5
  }
}
JSON
"$SWEEP" --spec "$SPEC" --csv > "$WORK/single_spec.csv"
"$SWEEP" --sizes 7:2,10:3 --attacks noise,split-brain --seeds 2 \
  --rounds 300 --csv > "$WORK/single_seeds12.csv"
if cmp -s "$WORK/single_spec.csv" "$WORK/single_seeds12.csv"; then
  echo "shard_e2e: FAIL — seeds [3, 5] ran as seeds 1, 2" >&2
  exit 1
fi
"$FABRIC" --mode local --fabric-dir "$WORK/local_spec" --worker "$SWEEP" \
  --spec "$SPEC" --shards 3 --out "$WORK/merged_spec.csv" \
  2> "$WORK/local_spec.log"
if ! grep -q '"seeds": \[3,5\]' "$WORK/local_spec/grid.json"; then
  echo "shard_e2e: FAIL — grid.json does not pin the seed list" >&2
  cat "$WORK/local_spec/grid.json" >&2
  exit 1
fi
same_csv "$WORK/single_spec.csv" "$WORK/merged_spec.csv" "--spec"

echo "shard_e2e: malformed grids and cross-mode flags refused up front ..."
# A malformed grid exits non-zero before anything runs or is written;
# a grid flag next to --spec, and a flag the --mode does not read, exit 2
# before the fabric directory is touched.
for BAD in "--seeds -1" "--rounds -1" "--sizes 7:2x" "--sizes 7:2," \
           "--dim 1,,2"; do
  BAD_STATUS=0
  # shellcheck disable=SC2086  # word-splitting of $BAD is intended
  "$SWEEP" $BAD --out "$WORK/bad.csv" 2> "$WORK/bad.log" || BAD_STATUS=$?
  if [ "$BAD_STATUS" -eq 0 ] || [ -e "$WORK/bad.csv" ]; then
    echo "shard_e2e: FAIL — ftmao_sweep accepted $BAD (exit $BAD_STATUS)" >&2
    exit 1
  fi
done
BAD_STATUS=0
"$SWEEP" --spec "$SPEC" --seeds 2 --csv 2> "$WORK/bad.log" || BAD_STATUS=$?
if [ "$BAD_STATUS" -ne 2 ]; then
  echo "shard_e2e: FAIL — ftmao_sweep took --seeds with --spec" \
       "(exit $BAD_STATUS)" >&2
  exit 1
fi
XFAB="$WORK/fabric_xmode"
for BAD in "--mode init --shards -1" \
           "--mode init --spec $SPEC --sizes 7:2" \
           "--mode init --threads 4 --cache-dir /nonexistent/zzz \
--timeout-sec 0" \
           "--mode local --shards 2 --wait-all"; do
  BAD_STATUS=0
  # shellcheck disable=SC2086  # word-splitting of $BAD is intended
  "$FABRIC" --fabric-dir "$XFAB" $BAD 2> "$WORK/bad.log" || BAD_STATUS=$?
  if [ "$BAD_STATUS" -ne 2 ] || [ -e "$XFAB" ]; then
    echo "shard_e2e: FAIL — ftmao_fabric accepted $BAD (exit $BAD_STATUS)" >&2
    cat "$WORK/bad.log" >&2
    exit 1
  fi
done
"$FABRIC" --mode init --fabric-dir "$XFAB" --sizes 7:2 --seeds 1 \
  --rounds 50 --shards 2 2> "$WORK/fabric_xmode_init.log"
for BAD in "--mode work --worker $SWEEP --seeds 9 --sizes 13:4 --shards 5" \
           "--mode merge --rounds 7 --out $WORK/xmode.csv" \
           "--mode status --worker-id w" \
           "--mode claim --claim-shard 0 --out $WORK/xmode.csv"; do
  BAD_STATUS=0
  # shellcheck disable=SC2086  # word-splitting of $BAD is intended
  "$FABRIC" --fabric-dir "$XFAB" $BAD 2> "$WORK/bad.log" || BAD_STATUS=$?
  if [ "$BAD_STATUS" -ne 2 ] || [ -e "$WORK/xmode.csv" ] ||
     find "$XFAB/leases" -type f | grep -q .; then
    echo "shard_e2e: FAIL — ftmao_fabric accepted $BAD (exit $BAD_STATUS)" >&2
    cat "$WORK/bad.log" >&2
    exit 1
  fi
done

echo "shard_e2e: fabric — stale-lease steal + duplicate-claim rejection ..."
# The multi-node fabric's crash-fault path, end to end over real
# subprocesses: a worker SIGKILLs itself right after claiming a shard
# (frozen heartbeat), a probe for the same shard is refused while the
# lease is younger than the TTL (duplicate-claim rejection), then a
# rescuer with a short TTL steals the stale lease, finishes the grid, and
# the fabric merge is byte-identical to the single-process sweep.
FAB="$WORK/fabric"
FGRID="--sizes 7:2,10:3 --attacks split-brain,sign-flip --seeds 2 --rounds 300"
# shellcheck disable=SC2086  # word-splitting of $FGRID is intended
"$SWEEP" $FGRID --csv > "$WORK/single_fabric.csv"
# shellcheck disable=SC2086
"$FABRIC" --mode init --fabric-dir "$FAB" $FGRID --shards 4 \
  2> "$WORK/fabric_init.log"

DIE_STATUS=0
"$FABRIC" --mode work --fabric-dir "$FAB" --worker-id dier \
  --worker "$SWEEP" --inject-die-shard 2 \
  2> "$WORK/fabric_dier.log" || DIE_STATUS=$?
if [ "$DIE_STATUS" -ne 137 ]; then
  echo "shard_e2e: FAIL — dier exited $DIE_STATUS, expected 137 (SIGKILL)" >&2
  cat "$WORK/fabric_dier.log" >&2
  exit 1
fi

PROBE_STATUS=0
"$FABRIC" --mode claim --fabric-dir "$FAB" --claim-shard 2 \
  --worker-id prober > "$WORK/fabric_probe.log" || PROBE_STATUS=$?
if [ "$PROBE_STATUS" -ne 4 ] ||
   ! grep -q "refused" "$WORK/fabric_probe.log"; then
  echo "shard_e2e: FAIL — duplicate claim of a live lease was not refused" \
       "(exit $PROBE_STATUS)" >&2
  cat "$WORK/fabric_probe.log" >&2
  exit 1
fi

"$FABRIC" --mode work --fabric-dir "$FAB" --worker-id rescuer \
  --worker "$SWEEP" --lease-ttl-ms 200 --wait-all \
  2> "$WORK/fabric_rescuer.log"

if ! grep -q "stole shard 2" "$WORK/fabric_rescuer.log"; then
  echo "shard_e2e: FAIL — rescuer did not steal the dead worker's shard" >&2
  cat "$WORK/fabric_rescuer.log" >&2
  exit 1
fi

# The acceptance property: the original lease and the completion record
# of the stolen shard name different workers.
if ! grep -q '"worker_id": "dier"' "$FAB/leases/shard_2.a1.lease" ||
   ! grep -q '"worker_id": "rescuer"' "$FAB/results/shard_2.done.json"; then
  echo "shard_e2e: FAIL — stolen shard's lease/completion worker ids" \
       "wrong" >&2
  cat "$FAB/leases/shard_2.a1.lease" "$FAB/results/shard_2.done.json" >&2
  exit 1
fi

"$FABRIC" --mode merge --fabric-dir "$FAB" --out "$WORK/merged_fabric.csv" \
  2> "$WORK/fabric_merge.log"

if ! cmp -s "$WORK/single_fabric.csv" "$WORK/merged_fabric.csv"; then
  echo "shard_e2e: FAIL — fabric merged CSV differs from" \
       "single-process CSV" >&2
  diff "$WORK/single_fabric.csv" "$WORK/merged_fabric.csv" >&2 || true
  exit 1
fi

echo "shard_e2e: fabric" \
     "(--megabatch refused, --spec and --scalar forwarded) ..."
# ftmao_fabric has no --megabatch flag: the parser rejects it (exit 2)
# before the fabric directory is touched, so init creates no directory
# and work claims no shard. The workers run through a wrapper that logs
# their argv: each shard process gets the pinned grid as --spec and no
# grid flag, --scalar reaches every one of them, and the --scalar run
# merges byte-identical to the single-process sweep.
SCFAB="$WORK/fabric_scalar"
MB_STATUS=0
# shellcheck disable=SC2086  # word-splitting of $FGRID is intended
"$FABRIC" --mode init --fabric-dir "$SCFAB" $FGRID --shards 2 \
  --megabatch off 2> "$WORK/fabric_mb_init.log" || MB_STATUS=$?
if [ "$MB_STATUS" -ne 2 ] || [ -e "$SCFAB" ]; then
  echo "shard_e2e: FAIL — init accepted --megabatch off (exit $MB_STATUS)" >&2
  cat "$WORK/fabric_mb_init.log" >&2
  exit 1
fi
# shellcheck disable=SC2086
"$FABRIC" --mode init --fabric-dir "$SCFAB" $FGRID --shards 2 \
  2> "$WORK/fabric_scalar_init.log"
MB_STATUS=0
"$FABRIC" --mode work --fabric-dir "$SCFAB" --worker-id mboff \
  --worker "$SWEEP" --megabatch off \
  2> "$WORK/fabric_mb_work.log" || MB_STATUS=$?
if [ "$MB_STATUS" -ne 2 ] || grep -rqs '"worker_id": "mboff"' "$SCFAB"; then
  echo "shard_e2e: FAIL — work accepted --megabatch off (exit $MB_STATUS)" >&2
  cat "$WORK/fabric_mb_work.log" >&2
  exit 1
fi

ARGV_LOG="$WORK/fabric_scalar_argv.log"
cat > "$WORK/sweep_argv_logger.sh" <<EOF
#!/bin/sh
echo "\$*" >> "$ARGV_LOG"
exec "$SWEEP" "\$@"
EOF
chmod +x "$WORK/sweep_argv_logger.sh"
"$FABRIC" --mode work --fabric-dir "$SCFAB" --worker-id scalar \
  --worker "$WORK/sweep_argv_logger.sh" --scalar --wait-all \
  2> "$WORK/fabric_scalar_work.log"
if [ "$(grep -c -- "--scalar" "$ARGV_LOG")" -ne 2 ]; then
  echo "shard_e2e: FAIL — --scalar was not forwarded to both shards" >&2
  cat "$ARGV_LOG" >&2
  exit 1
fi
if [ "$(grep -c -- "--spec $SCFAB/grid.json " "$ARGV_LOG")" -ne 2 ] ||
   grep -qE -- "--(sizes|dim|attacks|seeds|rounds|spread|step|step-scale|\
step-exp|engine|delay|delay-lo|delay-hi) " "$ARGV_LOG"; then
  echo "shard_e2e: FAIL — workers did not get --spec alone for the grid" >&2
  cat "$ARGV_LOG" >&2
  exit 1
fi
"$FABRIC" --mode merge --fabric-dir "$SCFAB" \
  --out "$WORK/merged_fabric_scalar.csv" 2> "$WORK/fabric_scalar_merge.log"
if ! cmp -s "$WORK/single_fabric.csv" "$WORK/merged_fabric_scalar.csv"; then
  echo "shard_e2e: FAIL — fabric --scalar merged CSV differs" >&2
  diff "$WORK/single_fabric.csv" "$WORK/merged_fabric_scalar.csv" >&2 || true
  exit 1
fi

echo "shard_e2e: fabric — unusable worker flags refused before any claim ..."
# Each of these values makes a worker that can never finish a shard
# (every attempt killed at once, no attempt allowed, ...): --mode work
# must exit 2 before it claims anything. No --wait-all, so a worker that
# wrongly accepts --retries -1 exits at once instead of waiting forever.
TOFAB="$WORK/fabric_timeout"
# shellcheck disable=SC2086  # word-splitting of $FGRID is intended
"$FABRIC" --mode init --fabric-dir "$TOFAB" $FGRID --shards 2 \
  2> "$WORK/fabric_timeout_init.log"
for BAD in "--timeout-sec 0" "--timeout-sec -1" "--timeout-sec inf" \
           "--timeout-sec nan" "--retries -1" "--backoff-ms -1" \
           "--lease-ttl-ms 0" "--max-wall-sec -1" "--max-wall-sec inf"; do
  BAD_STATUS=0
  # shellcheck disable=SC2086  # word-splitting of $BAD is intended
  "$FABRIC" --mode work --fabric-dir "$TOFAB" --worker-id badflag \
    --worker "$SWEEP" $BAD \
    2> "$WORK/fabric_badflag.log" || BAD_STATUS=$?
  if [ "$BAD_STATUS" -ne 2 ] ||
     grep -rqs '"worker_id": "badflag"' "$TOFAB/leases"; then
    echo "shard_e2e: FAIL — work accepted $BAD (exit $BAD_STATUS)" >&2
    cat "$WORK/fabric_badflag.log" >&2
    exit 1
  fi
done

echo "shard_e2e: bad counts and --cache-mem-mb refused before any" \
     "output or lease ..."
# A count flag at -1 must not wrap to 2^64 - 1 (--threads -1 would start
# one OS thread per task): ftmao_sweep exits 1 naming the flag and writes
# no CSV. ftmao_fabric forwards --threads and --batch to every shard, so
# local mode exits 2 before it creates the fabric directory, and work
# mode exits 2 before it claims a shard. The result cache is its
# directory alone, with no memory budget: all three refuse
# --cache-mem-mb as an unknown flag (exit 2), so a stale script fails.
NEG="$WORK/negative"
mkdir -p "$NEG"
"$FABRIC" --mode init --fabric-dir "$NEG/fab" --sizes 7:2 --seeds 1 \
  --rounds 20 --shards 1 2> "$NEG/init.log"
for CASE in threads:-1:1 batch:-1:1 cache-mem-mb:256:2; do
  FLAG="--${CASE%%:*}"
  VALUE="${CASE#*:}"
  SWEEP_WANT="${VALUE#*:}"
  VALUE="${VALUE%%:*}"
  NEG_STATUS=0
  "$SWEEP" --sizes 7:2 --seeds 1 --rounds 20 "$FLAG" "$VALUE" \
    --out "$NEG/sweep.csv" 2> "$NEG/bad.log" || NEG_STATUS=$?
  if [ "$NEG_STATUS" -ne "$SWEEP_WANT" ] || [ -e "$NEG/sweep.csv" ] ||
     ! grep -q -- "$FLAG" "$NEG/bad.log"; then
    echo "shard_e2e: FAIL — ftmao_sweep accepted $FLAG $VALUE" \
         "(exit $NEG_STATUS)" >&2
    cat "$NEG/bad.log" >&2
    exit 1
  fi
  NEG_STATUS=0
  "$FABRIC" --mode local --fabric-dir "$NEG/local" --worker "$SWEEP" \
    --sizes 7:2 --seeds 1 --rounds 20 --shards 1 "$FLAG" "$VALUE" \
    --out "$NEG/local.csv" 2> "$NEG/bad.log" || NEG_STATUS=$?
  if [ "$NEG_STATUS" -ne 2 ] || [ -e "$NEG/local" ] ||
     [ -e "$NEG/local.csv" ] || ! grep -q -- "$FLAG" "$NEG/bad.log"; then
    echo "shard_e2e: FAIL — local mode accepted $FLAG $VALUE" \
         "(exit $NEG_STATUS)" >&2
    cat "$NEG/bad.log" >&2
    exit 1
  fi
  NEG_STATUS=0
  "$FABRIC" --mode work --fabric-dir "$NEG/fab" --worker "$SWEEP" \
    "$FLAG" "$VALUE" 2> "$NEG/bad.log" || NEG_STATUS=$?
  if [ "$NEG_STATUS" -ne 2 ] || find "$NEG/fab" -name '*.lease' | grep -q . ||
     ! grep -q -- "$FLAG" "$NEG/bad.log"; then
    echo "shard_e2e: FAIL — work mode accepted $FLAG $VALUE" \
         "(exit $NEG_STATUS)" >&2
    cat "$NEG/bad.log" >&2
    exit 1
  fi
done

echo "shard_e2e: fabric — a hung shard process is killed at --timeout-sec ..."
# The worker binary is a wrapper whose first spawn for shard 1 sleeps for
# 30 s. The worker must kill it 0.5 s in (status 124), retry the shard
# under the same lease, and finish in seconds, not after the sleep.
cat > "$WORK/sweep_hang_once.sh" <<EOF
#!/bin/sh
case " \$* " in
  *" --shard-index 1 "*)
    if [ ! -e "$WORK/hang_once.marker" ]; then
      : > "$WORK/hang_once.marker"
      exec sleep 30
    fi ;;
esac
exec "$SWEEP" "\$@"
EOF
chmod +x "$WORK/sweep_hang_once.sh"
TO_START=$(date +%s)
"$FABRIC" --mode work --fabric-dir "$TOFAB" --worker-id timer \
  --worker "$WORK/sweep_hang_once.sh" --timeout-sec 0.5 --retries 1 \
  --backoff-ms 10 --wait-all 2> "$WORK/fabric_timeout.log"
TO_SECONDS=$(( $(date +%s) - TO_START ))
if ! grep -q "shard 1 attempt 1 failed (status 124)" \
       "$WORK/fabric_timeout.log" ||
   ! grep -q "completed shard 1 " "$WORK/fabric_timeout.log"; then
  echo "shard_e2e: FAIL — the hung attempt was not timed out and retried" >&2
  cat "$WORK/fabric_timeout.log" >&2
  exit 1
fi
if [ "$TO_SECONDS" -ge 15 ]; then
  echo "shard_e2e: FAIL — the timeout stage took $TO_SECONDS s" >&2
  exit 1
fi
"$FABRIC" --mode merge --fabric-dir "$TOFAB" \
  --out "$WORK/merged_fabric_timeout.csv" 2> "$WORK/fabric_timeout_merge.log"
if ! cmp -s "$WORK/single_fabric.csv" "$WORK/merged_fabric_timeout.csv"; then
  echo "shard_e2e: FAIL — fabric merged CSV after a timeout differs" >&2
  diff "$WORK/single_fabric.csv" "$WORK/merged_fabric_timeout.csv" >&2 || true
  exit 1
fi

echo "shard_e2e: local mode started through PATH finds its worker ..."
# Without --worker, ftmao_fabric runs the ftmao_sweep next to its own
# executable. Started by bare name through PATH, from a directory that
# holds neither binary, argv[0] has no directory part: the worker must
# still be found, and the merge match the single-process run.
APPS=$(cd "$(dirname "$FABRIC")" && pwd)
if [ "$(cd "$(dirname "$SWEEP")" && pwd)/$(basename "$SWEEP")" != \
     "$APPS/ftmao_sweep" ]; then
  echo "shard_e2e: skipped — $SWEEP is not ftmao_sweep beside $FABRIC"
else
  PGRID="--sizes 4:1 --attacks split-brain --seeds 1 --rounds 5"
  # shellcheck disable=SC2086  # word-splitting of $PGRID is intended
  "$SWEEP" $PGRID --csv > "$WORK/single_path.csv"
  # Absolute, since the fabric runs from another directory.
  HERE=$(cd "$WORK" && pwd)
  mkdir -p "$HERE/elsewhere"
  # shellcheck disable=SC2086
  (cd "$HERE/elsewhere" &&
   PATH="$APPS:$PATH" "$(basename "$FABRIC")" --mode local \
     --fabric-dir "$HERE/local_path" $PGRID --shards 2 --retries 0 \
     --out "$HERE/merged_path.csv" 2> "$HERE/local_path.log") || {
    echo "shard_e2e: FAIL — local mode started through PATH failed" >&2
    cat "$HERE/local_path.log" >&2
    exit 1
  }
  same_csv "$WORK/single_path.csv" "$HERE/merged_path.csv" "PATH-started"
fi

echo "shard_e2e: OK — retry exercised, re-run resumed, merged CSVs \
byte-identical, engine flags forwarded, dim axis round-trips, sharded \
--scalar identical, warm-start served from cache, async and --spec \
seed-list grids sharded, malformed grids and cross-mode flags refused, \
fabric steal recovered, workers given --spec and --scalar, unusable \
worker flags refused, bad counts and --cache-mem-mb refused, hung \
shard timed out and retried, worker found through PATH"
