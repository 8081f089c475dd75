"""The benchmark's four workloads: what one pass runs, the output it must
reproduce, its fixed set-up cost, and how a traced pass is measured.
README.md says why each workload was chosen.

Every pass is checked against the scalar reference engine's output for
the same inputs, computed once per run from the same build.
"""

import dataclasses
import json
import os
import shutil
import statistics
import time

import metrics
import procs

SWEEP_SIZES = "7:2,13:4,22:7,31:10"
SWEEP_ATTACKS = "split-brain,sign-flip,pull"
SWEEP_SEEDS = 16
SWEEP_ROUNDS = 4000

CERTIFY_N = 22
CERTIFY_F = 7

FABRIC_SIZES = "4:1,7:2,10:3,13:4"
FABRIC_CACHED_SIZES = "4:1,7:2"  # pre-seeded in the shared cache
FABRIC_ATTACKS = ("none,silent,fixed,split-brain,hull-edge-up,hull-edge-down,"
                  "noise,sign-flip,pull,flip-flop,delayed-strike")
FABRIC_DIMS = "1,2"
FABRIC_SEEDS = 4
FABRIC_ROUNDS = 400
# A worker polls its shard process every 10 ms, so most shards of a
# 32-shard split read exactly 10 or 20 ms and small load changes flip them
# across the step: run medians then spread 0.1-0.3 between seeds. With 8
# shards of ~11 cells the steps are a small share of each shard.
FABRIC_SHARDS = 8
FABRIC_CACHED_CELLS = 44  # 2 sizes x 2 dims x 11 attacks

# What `perfbench_probe layers` prints, by name.
PROBE_METRICS = (
    "batch_runner.attack_s.split-brain", "batch_runner.attack_s.sign-flip",
    "batch_runner.attack_s.pull", "adversary.round_ns.split-brain",
    "adversary.round_ns.sign-flip", "adversary.round_ns.pull",
    "adversary.round_ns.noise", "trim.trim_batch_ns.n13",
    "trim.trim_batch_ns.n31", "lp.witness_us", "cache.lookup_us",
    "cache.insert_us", "apps.spawn_ms")

# No pass of any workload comes near this; a process that does is hung.
TIMEOUT_S = 60.0


def spread_for(seed):
    """The grid workloads' input seed: ftmao_sweep and ftmao_fabric take
    only seeds 1..k, so the workload seed moves the cost-optima layout
    width instead. Seed 1 is the default grid (spread 8)."""
    return 8.0 + 0.25 * ((seed - 1) % 16)


def certify_seed_for(seed):
    """ftmao_certify's --seed. 1..16 all certify at n=22."""
    return 1 + (seed - 1) % 16


@dataclasses.dataclass
class Pass:
    failure: str  # None when the pass succeeded
    wall_s: float
    cpu_s: float = 0.0
    rss_kib: int = 0
    layers: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)


def measured(exits, wall_s, failure, **traced):
    return Pass(failure, wall_s, sum(e.cpu_s for e in exits),
                max(e.maxrss_kib for e in exits), **traced)


def load_spans(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class Workload:
    """Shared plumbing. `name` is the workload's key in WORKLOADS; `bins`
    maps binary names to paths; `threads` is the pass's thread or worker
    count; `cap` the most the machine allows, used for the untimed
    reference; `work` this run's scratch directory."""

    def __init__(self, name, bins, seed, threads, cap, work):
        self.name = name
        self.bins = bins
        self.seed = seed
        self.threads = threads
        self.cap = cap
        self.work = work
        self.reference = None
        self.passes_made = 0
        self.last_paths = []

    def fresh(self, *names):
        """New scratch paths for one pass. Removes the previous pass's
        paths and flushes the file system first, outside any timing, so
        that freeing their blocks (and the disk's discards) never lands
        inside a timed pass."""
        for path in self.last_paths:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
        os.sync()
        self.passes_made += 1
        self.last_paths = [self.work / f"{self.passes_made}-{name}"
                           for name in names]
        return self.last_paths

    def run(self, argv, stdout=None, stderr=None):
        return procs.run(argv, stdout, stderr, TIMEOUT_S)

    @property
    def companions(self):
        """The workloads a traced run borrows the layers this one does not
        exercise from (see README.md, "Per-layer metrics")."""
        return COMPANIONS[self.name]

    def prepare(self):
        """Computes the reference output. Returns a failure or None."""
        raise NotImplementedError

    def after_traced(self, traced):
        """Layer metrics measured once per traced run, after its passes:
        ({metric: value}, [failure or None per operation run])."""
        return {}, []


class Sweep(Workload):
    """ftmao_sweep on the realistic grid at a fixed thread count."""

    def grid(self, rounds=SWEEP_ROUNDS, seeds=SWEEP_SEEDS):
        return ["--sizes", SWEEP_SIZES, "--attacks", SWEEP_ATTACKS,
                "--seeds", str(seeds), "--rounds", str(rounds),
                "--spread", repr(spread_for(self.seed))]

    def prepare(self):
        out = self.work / "reference.csv"
        e = self.run([self.bins["ftmao_sweep"], *self.grid(), "--csv",
                      "--scalar", "--threads", str(self.cap)], out)
        self.reference = out.read_bytes()
        return metrics.failure([e])

    def _sweep(self, rounds, seeds, reference):
        out, = self.fresh("pass.csv")
        e = self.run([self.bins["ftmao_sweep"], *self.grid(rounds, seeds),
                      "--threads", str(self.threads), "--csv"], out)
        output = out.read_bytes() if reference is not None else None
        return measured([e], e.wall_s, metrics.failure([e], output, reference))

    def run_pass(self):
        return self._sweep(SWEEP_ROUNDS, SWEEP_SEEDS, self.reference)

    def setup_pass(self):
        return self._sweep(1, 1, None)

    def traced_pass(self):
        out, spans = self.fresh("traced.csv", "spans.jsonl")
        e = self.run([self.bins["perfbench_probe"], "sweep", *self.grid(),
                      "--threads", str(self.threads), "--out", out,
                      "--spans", spans])
        failure = metrics.failure(
            [e], out.read_bytes() if e.ok else None, self.reference)
        if failure is not None:
            return measured([e], e.wall_s, failure)
        trace = load_spans(spans)
        return measured([e], e.wall_s, None, spans=trace,
                        layers=metrics.engine_layer_metrics(trace))


class Certify(Workload):
    """ftmao_certify at n=22 with its default sections, on one thread."""

    def argv(self):
        return [self.bins["ftmao_certify"], "--n", str(CERTIFY_N), "--f",
                str(CERTIFY_F), "--seed", str(certify_seed_for(self.seed))]

    def prepare(self):
        out = self.work / "reference.txt"
        e = self.run([*self.argv(), "--scalar", "--threads",
                      str(self.cap)], out)
        self.reference = out.read_bytes()
        if not self.reference.endswith(b"\nCERTIFIED\n"):
            return "the scalar reference does not certify"
        return metrics.failure([e])

    def run_pass(self):
        out, = self.fresh("pass.txt")
        e = self.run(self.argv(), out)
        return measured([e], e.wall_s,
                        metrics.failure([e], out.read_bytes(), self.reference))

    def setup_pass(self):
        """One round per section cannot certify: exit 1 with a complete
        FAILED report is the expected outcome."""
        out, = self.fresh("setup.txt")
        e = self.run([*self.argv(), "--rounds", "1", "--async-rounds", "1",
                      "--vector-rounds", "1"], out)
        failure = metrics.failure([e], ok_codes=(0, 1))
        report = out.read_bytes()
        if failure is None and not report.endswith((b"\nCERTIFIED\n",
                                                    b"\nFAILED\n")):
            failure = "incomplete certify report"
        return measured([e], e.wall_s, failure)

    def probe_argv(self, spans):
        return [self.bins["perfbench_probe"], "certify", "--n",
                str(CERTIFY_N), "--f", str(CERTIFY_F), "--seed",
                str(certify_seed_for(self.seed)), "--spans", spans]

    def traced_pass(self):
        out, spans = self.fresh("traced.txt", "spans.jsonl")
        e = self.run([*self.probe_argv(spans), "--out", out])
        failure = metrics.failure(
            [e], out.read_bytes() if e.ok else None, self.reference)
        if failure is not None:
            return measured([e], e.wall_s, failure)
        trace = load_spans(spans)
        return measured([e], e.wall_s, None, spans=trace,
                        layers=metrics.engine_layer_metrics(trace))

    def after_traced(self, traced):
        """lp.audit_s: the sync section's engine time with the witness
        audits on (the traced passes) minus off (one extra probe run)."""
        spans, = self.fresh("noaudit.jsonl")
        e = self.run([*self.probe_argv(spans), "--no-audit"])
        failure = metrics.failure([e])
        if failure is not None or not traced:
            return {}, [failure]
        off = metrics.engine_layer_metrics(load_spans(spans))
        on = statistics.median(p.layers["batch_runner.busy_s"] for p in traced)
        return {"lp.audit_s": on - off["batch_runner.busy_s"]}, [None]


class Fabric(Workload):
    """A local ftmao_fabric run: init, `workers` concurrent workers sharing
    a pre-seeded result cache, merge."""

    def grid(self, rounds, seeds, sizes=FABRIC_SIZES):
        return ["--sizes", sizes, "--attacks", FABRIC_ATTACKS, "--dim",
                FABRIC_DIMS, "--seeds", str(seeds), "--rounds", str(rounds),
                "--spread", repr(spread_for(self.seed))]

    def seed_dir(self, rounds):
        return self.work / f"seeded-cache-r{rounds}"

    def prepare(self):
        out = self.work / "reference.csv"
        e = self.run([self.bins["ftmao_sweep"],
                      *self.grid(FABRIC_ROUNDS, FABRIC_SEEDS), "--csv",
                      "--scalar", "--threads", str(self.cap)], out)
        self.reference = out.read_bytes()
        failure = metrics.failure([e])
        for rounds, seeds in ((FABRIC_ROUNDS, FABRIC_SEEDS), (1, 1)):
            if failure is not None:
                break
            seed = self.run([self.bins["ftmao_sweep"],
                             *self.grid(rounds, seeds, FABRIC_CACHED_SIZES),
                             "--csv", "--cache-dir", self.seed_dir(rounds)])
            failure = metrics.failure([seed])
            records = list(self.seed_dir(rounds).iterdir())
            if failure is None and len(records) != FABRIC_CACHED_CELLS:
                failure = f"seeded {len(records)} cache records"
        return failure

    def _fabric(self, rounds, seeds, traced):
        d, = self.fresh("pass")
        d.mkdir()
        shutil.copytree(self.seed_dir(rounds), d / "cache")
        fabric = self.bins["ftmao_fabric"]
        fab = d / "fab"
        errs = [d / f"w{i}.err" if traced else None
                for i in range(self.threads)]
        t0 = time.perf_counter()
        init = self.run([fabric, "--mode", "init", "--fabric-dir", fab,
                         "--shards", str(FABRIC_SHARDS),
                         *self.grid(rounds, seeds)])
        t1 = time.perf_counter()
        workers = procs.run_parallel(
            [[fabric, "--mode", "work", "--fabric-dir", fab, "--worker-id",
              f"w{i}", "--wait-all", "--threads", "1", "--cache-dir",
              d / "cache"] for i in range(self.threads)], errs, TIMEOUT_S)
        t2 = time.perf_counter()
        merge = self.run([fabric, "--mode", "merge", "--fabric-dir", fab,
                          "--out", d / "merged.csv"])
        t3 = time.perf_counter()
        exits = [init, *workers, merge]
        failure = metrics.failure(exits)
        if failure is None and rounds == FABRIC_ROUNDS:
            failure = metrics.failure(exits, (d / "merged.csv").read_bytes(),
                                      self.reference)
        p = measured(exits, t3 - t0, failure)
        if traced and failure is None:
            p.spans = fabric_spans(t0, t1, t2, t3, workers)
            worker_lines, cache_lines = [], []
            for err in errs:
                for line in err.read_text().splitlines():
                    if metrics.WORKER_SUMMARY.search(line):
                        worker_lines.append(line)
                    elif " cache: " in line:
                        cache_lines.append(line)
            shard_s = [json.loads(r.read_text())["wall_ms"] / 1e3
                       for r in (fab / "results").glob("shard_*.done.json")]
            p.layers = metrics.fabric_layer_metrics(
                {"init": t1 - t0, "work": t2 - t1, "merge": t3 - t2},
                shard_s, self.threads, worker_lines, cache_lines)
        return p

    def run_pass(self):
        return self._fabric(FABRIC_ROUNDS, FABRIC_SEEDS, traced=False)

    def setup_pass(self):
        return self._fabric(1, 1, traced=False)

    def traced_pass(self):
        return self._fabric(FABRIC_ROUNDS, FABRIC_SEEDS, traced=True)


def run_probes(bins, seed, work):
    """The fixed-input layer probes (`perfbench_probe layers`). Returns
    ({metric: value}, failure)."""
    os.sync()  # the cache probe writes to disk; start it with none pending
    out = work / "probes.json"
    e = procs.run([bins["perfbench_probe"], "layers", "--spread",
                   repr(spread_for(seed)), "--sweep-bin", bins["ftmao_sweep"],
                   "--cache-dir", work / "probe-caches", "--fabric-sizes",
                   FABRIC_SIZES, "--fabric-attacks", FABRIC_ATTACKS,
                   "--fabric-dims", FABRIC_DIMS, "--fabric-seeds",
                   str(FABRIC_SEEDS), "--fabric-rounds", str(FABRIC_ROUNDS)],
                  out, None, TIMEOUT_S)
    failure = metrics.failure([e])
    if failure is not None:
        return {}, failure
    values = json.loads(out.read_text())
    if sorted(values) != sorted(PROBE_METRICS):
        return {}, f"probe printed {sorted(values)}"
    return values, None


def fabric_spans(t0, t1, t2, t3, workers):
    """Process-boundary spans of one fabric pass, in seconds from t0."""
    spans = [{"name": "pass", "id": 1, "parent": 0, "start": 0.0,
              "end": t3 - t0},
             {"name": "fabric.init", "id": 2, "parent": 1, "start": 0.0,
              "end": t1 - t0},
             {"name": "fabric.work", "id": 3, "parent": 1, "start": t1 - t0,
              "end": t2 - t0},
             {"name": "fabric.merge", "id": 4, "parent": 1, "start": t2 - t0,
              "end": t3 - t0}]
    for i, w in enumerate(workers):
        spans.append({"name": "fabric.worker", "id": 5 + i, "parent": 3,
                      "start": t1 - t0, "end": t1 - t0 + w.wall_s})
    return spans


# name -> (workload class, its thread or worker count given the cap).
WORKLOADS = {
    "sweep-1t": (Sweep, lambda cap: 1),
    "sweep-4t": (Sweep, lambda cap: cap),
    "certify-n22": (Certify, lambda cap: 1),
    "fabric-4w": (Fabric, lambda cap: cap),
}

# name -> the workloads that exercise the layers it does not. A traced run
# adds one traced pass of each and reports what it measured under the
# companion's name, so every per-layer metric has a measured value.
COMPANIONS = {
    "sweep-1t": ("certify-n22", "fabric-4w"),
    "sweep-4t": ("certify-n22", "fabric-4w"),
    "certify-n22": ("sweep-1t", "fabric-4w"),
    "fabric-4w": ("sweep-1t", "certify-n22"),
}


def make(name, bins, seed, cap, work):
    cls, threads = WORKLOADS[name]
    return cls(name, bins, seed, threads(cap), cap, work)
