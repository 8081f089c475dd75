"""The benchmark's arithmetic: timing summaries, failure accounting, span
self time, and the per-layer metrics derived from a traced pass.

Pure functions over plain data, so test_perfbench.py can pin them.
"""

import math
import re
import statistics

# Percentiles a timing may be reported at besides its median, highest
# first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, p):
    """Samples strictly above the nearest-rank p-th percentile position."""
    return count - max(1, math.ceil(p / 100.0 * count))


def reported_percentile(values):
    """(p, value) for the highest of PERCENTILES with at least MIN_BEYOND
    samples beyond it, or None when none has."""
    for p in PERCENTILES:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def timing_line(name, unit, values, noun="passes"):
    """'<name>: median <v> <unit> over <n> passes[, p<q> <v> <unit>]'."""
    line = (f"{name}: median {statistics.median(values):.6g} {unit} over "
            f"{len(values)} {noun}")
    top = reported_percentile(values)
    if top is None:
        line += f" (no percentile above p50 has {MIN_BEYOND} beyond it)"
    else:
        line += f", p{top[0]:g} {top[1]:.6g} {unit}"
    return line


def failure(exits, output=None, reference=None, ok_codes=(0,)):
    """Why an operation made of the given process Exits failed, or None:
    a timeout, an exit status outside ok_codes, or output that is not
    byte-identical to the reference."""
    for e in exits:
        if e.timed_out:
            return f"timed out: {' '.join(e.argv[:2])}"
        if e.code not in ok_codes:
            return f"exit {e.code}: {' '.join(e.argv[:2])}"
    if output != reference:
        return "output differs from the scalar reference"
    return None


class Tally:
    """Attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason):
        """Counts one operation; `reason` is None when it succeeded.
        Returns whether it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return reason is None

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


# --- spans ------------------------------------------------------------


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: its duration minus the part of it its children cover}.
    Children may nest further and overlap each other (pool tasks)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], [])]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_self_times(spans):
    """{layer: summed self time} where a span's layer is its name's prefix
    before the first dot."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def _dur(s):
    return s["end"] - s["start"]


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


ENGINE_SPANS = ("batch_runner.run_sbg_batch",
                "batch_async_runner.run_async_sbg_batch",
                "batch_vector_runner.run_vector_sbg_batch")


def engine_layer_metrics(spans):
    """Per-layer metrics of one in-process traced pass (sweep or certify
    re-drive), for the layers the pass ran: a layer without spans, or a
    system size without engine calls, gets no entry."""
    m = {}
    sync = _named(spans, "batch_runner.run_sbg_batch")
    if sync:
        m["batch_runner.busy_s"] = sum(map(_dur, sync))
    for n in sorted({s["attrs"]["n"] for s in sync}):
        of_n = [s for s in sync if s["attrs"]["n"] == n]
        agent_rounds = sum(s["attrs"]["replicas"] * n * s["attrs"]["rounds"]
                           for s in of_n)
        m[f"batch_runner.ns_per_agent_round.n{n:g}"] = (
            sum(map(_dur, of_n)) / agent_rounds * 1e9)
    for metric, name in (
            ("batch_async_runner.busy_s",
             "batch_async_runner.run_async_sbg_batch"),
            ("batch_vector_runner.busy_s",
             "batch_vector_runner.run_vector_sbg_batch"),
            ("trace.invariants_s", "trace.check_sbg_invariants")):
        found = _named(spans, name)
        if found:
            m[metric] = sum(map(_dur, found))

    plans = [s for s in spans if s["name"].startswith("megabatch.")]
    if plans:
        m["megabatch.plan_s"] = sum(map(_dur, plans))
        m["megabatch.tasks"] = sum(s["attrs"]["tasks"] for s in plans)
    passes = _named(spans, "pass")
    padded = sum(s["attrs"]["padded_lanes"] for s in passes)
    if padded:
        m["megabatch.occupancy"] = (
            sum(s["attrs"]["lanes"] for s in passes) / padded)
    engine = [_dur(s) for s in spans if s["name"] in ENGINE_SPANS]
    if engine:
        m["megabatch.max_task_share"] = max(engine) / sum(engine)

    pools = _named(spans, "thread_pool.parallel_for_each")
    if pools:
        busy = capacity = tail = 0.0
        for pool in pools:
            tasks = [s for s in spans if s["parent"] == pool["id"]]
            threads = int(pool["attrs"]["threads"])
            busy += sum(map(_dur, tasks))
            capacity += threads * _dur(pool)
            tail += pool_tail(pool, tasks, threads)
        m["thread_pool.utilization"] = busy / capacity
        m["thread_pool.tail_s"] = tail
    return m


def pool_tail(pool, tasks, threads):
    """Time from the first pool thread going idle to parallel_for_each
    returning: the tail of tasks other threads wait out, plus the pool's
    own hand-back. A thread that ran no task was idle from the pool's
    start."""
    last_end = {}
    for t in tasks:
        last_end[t["thread"]] = max(last_end.get(t["thread"], t["end"]),
                                    t["end"])
    idle_from = list(last_end.values())
    if len(last_end) < threads:
        idle_from.append(pool["start"])
    return pool["end"] - min(idle_from)


# A fabric worker's closing line, e.g. "fabric: worker 'w0' claimed 8
# lease(s) (0 stolen), completed 8 shard(s); grid complete".
WORKER_SUMMARY = re.compile(r"claimed (\d+) lease\(s\) \((\d+) stolen\)")


def fabric_layer_metrics(steps, shard_wall_s, workers, worker_lines,
                         cache_lines):
    """Per-layer metrics of one traced fabric pass, from its process
    boundaries and its completion records.

    steps: {"init"|"work"|"merge": wall seconds}; shard_wall_s: every
    completion record's wall time; worker_lines: the workers' summary
    lines ("claimed N lease(s) (S stolen)"); cache_lines: the shard
    processes' "cache: hits=.. misses=.." lines.
    """
    m = {"fabric.init_s": steps["init"], "fabric.work_s": steps["work"],
         "fabric.merge_s": steps["merge"],
         "fabric.shard_s.max": max(shard_wall_s) if shard_wall_s else 0.0,
         "fabric.utilization": (sum(shard_wall_s) / (workers * steps["work"])
                                if steps["work"] > 0 else 0.0)}
    claims = steals = 0
    for line in worker_lines:
        found = WORKER_SUMMARY.search(line)
        claims += int(found.group(1))
        steals += int(found.group(2))
    m["fabric.claims"] = claims
    m["fabric.steals"] = steals
    counts = {"hits": 0, "misses": 0, "inserts": 0, "disk_errors": 0}
    for line in cache_lines:
        fields = dict(w.split("=", 1) for w in line.split() if "=" in w)
        for key in counts:
            counts[key] += int(fields[key])
    for key, value in counts.items():
        m[f"cache.{key}"] = value
    return m
