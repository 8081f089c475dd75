#!/usr/bin/env python3
"""Benchmark of the ftmao entry points: ftmao_sweep on the realistic grid
at 1 and 4 threads, ftmao_certify at n=22, and a local 4-worker
ftmao_fabric run. Run it from the repository root:

    python3 perfbench/run.py --workload sweep-1t --seed 1 --seconds 10 \\
        --trace 0

It builds the repository and the benchmark's probe into .bench_build/
(about a minute on 4 cores the first time), computes the scalar reference
output, runs untimed warm-up passes, then runs passes back to back for
--seconds. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. Human-readable lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero, without a result, when it cannot build.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

BUILD_TARGETS = ("ftmao_sweep", "ftmao_certify", "ftmao_fabric_bin",
                 "perfbench_probe", "perfbench_spawn")
MAX_THREADS = 4  # the workloads' thread and worker count, capped at nproc
WARMUP_S = 2.0  # untimed passes before timing: at least one, and this long
MIN_PASSES = 3
SETUP_SHARE = 0.1  # of a run's timed stretch spent on set-up runs
SETUP_MIN = 5
SETUP_MAX = 401
RUN_BUDGET_S = 150.0  # no new pass starts after this, so a run ends < 180 s
# The peak RSS of `true` run through the launcher: about 1 MiB when the
# launcher keeps this process's own memory out of the figures it reports.
RSS_FLOOR_MAX_MB = 3.0


def log(message):
    print(message, file=sys.stderr, flush=True)


class BuildError(Exception):
    pass


def build(root, build_dir, jobs):
    """Configures (once) and builds the benchmark's targets. Returns
    {binary name: path}."""
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    with open(build_log, "ab") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=out, stderr=out).returncode:
                raise BuildError(f"configure failed, see {build_log}")
        step = ["cmake", "--build", str(build_dir), "-j", str(jobs),
                "--target", *BUILD_TARGETS]
        if subprocess.run(step, stdout=out, stderr=out).returncode:
            raise BuildError(f"build failed, see {build_log}")
    apps = build_dir / "ftmao" / "apps"
    return {"ftmao_sweep": str(apps / "ftmao_sweep"),
            "ftmao_certify": str(apps / "ftmao_certify"),
            "ftmao_fabric": str(apps / "ftmao_fabric"),
            "perfbench_probe": str(build_dir / "perfbench_probe"),
            "perfbench_spawn": str(build_dir / "perfbench_spawn")}


def machine_block(bins, work, nproc, cap, threads):
    """ISA, compiler, build type and git revision (as the build recorded
    it; "unknown" outside a git checkout) from the probe, plus the thread
    counts."""
    out = work / "machine.json"
    e = procs.run([bins["perfbench_probe"], "machine"], out)
    info = json.loads(out.read_text()) if e.ok else {}
    info.update({"nproc": nproc, "thread_cap": cap, "threads_used": threads,
                 "python": platform.python_version()})
    return info


def rss_floor(tally):
    """The peak RSS, in MiB, the launcher reports for `true`: the floor
    under every peak_rss_mb. A floor above RSS_FLOOR_MAX_MB means the
    figures carry another process's memory, and fails the run."""
    e = procs.run([shutil.which("true") or "/bin/true"])
    floor_mb = e.maxrss_kib / 1024.0
    failure = metrics.failure([e])
    if failure is None and floor_mb > RSS_FLOOR_MAX_MB:
        failure = (f"`true` reads a peak RSS of {floor_mb:.1f} MiB: the "
                   "launcher does not isolate this process's memory")
    tally.record(failure)
    return floor_mb


class Clock:
    """Stops new passes once the run's budget is spent."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def expired(self):
        return time.perf_counter() > self.deadline


def passes(run_pass, seconds, tally, clock, min_passes=MIN_PASSES,
           after=None):
    """Closed loop: each pass starts when the previous one ends, for at
    least `seconds` and `min_passes`; `after` runs between passes. Returns
    the successful passes."""
    done, attempts = [], 0
    start = time.perf_counter()
    while attempts < min_passes or time.perf_counter() - start < seconds:
        if clock.expired():
            break
        p = run_pass()
        attempts += 1
        if tally.record(p.failure):
            done.append(p)
        if after is not None:
            after()
    return done


def passes_with_setup(wl, seconds, tally, clock):
    """Timed passes as in `passes`, with set-up runs interleaved after them
    for about SETUP_SHARE of the time, so the set-up median covers the same
    stretch of machine load as the passes. Returns (passes, set-up walls)."""
    setup = []
    setup_s = 0.0
    start = time.perf_counter()

    def run_setup():
        nonlocal setup_s
        p = wl.setup_pass()
        if tally.record(p.failure):
            setup.append(p.wall_s)
        setup_s += p.wall_s

    def after_pass():
        elapsed = time.perf_counter() - start
        while (len(setup) < SETUP_MAX and setup_s < SETUP_SHARE * elapsed
               and not clock.expired()):
            run_setup()

    done = passes(wl.run_pass, seconds, tally, clock, after=after_pass)
    for _ in range(SETUP_MIN - len(setup)):
        if clock.expired():
            break
        run_setup()
    return done, setup


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(wl, args, tally, clock, lines):
    timed, setup = passes_with_setup(wl, args.seconds, tally, clock)
    walls = [p.wall_s for p in timed]
    cpus = [p.cpu_s for p in timed]
    rss_mb = [p.rss_kib / 1024.0 for p in timed]
    for name, unit, values in (("wall_s", "s", walls), ("cpu_s", "s", cpus),
                               ("peak_rss_mb", "MiB", rss_mb)):
        if values:
            lines.append(metrics.timing_line(name, unit, values))
    if setup:
        lines.append(metrics.timing_line("setup_s", "s", setup, "runs"))
    return {"wall_s": median_or_zero(walls), "cpu_s": median_or_zero(cpus),
            "peak_rss_mb": median_or_zero(rss_mb),
            "setup_s": median_or_zero(setup)}, {"pass_wall_s": walls,
                                                "setup_wall_s": setup}


def paired_passes(wl, seconds, tally, clock):
    """Untraced and traced passes alternating, for at least `seconds` and
    MIN_PASSES pairs attempted. Returns the pairs that both succeeded."""
    pairs, attempts = [], 0
    start = time.perf_counter()
    while attempts < MIN_PASSES or time.perf_counter() - start < seconds:
        if clock.expired():
            break
        untraced, traced = wl.run_pass(), wl.traced_pass()
        attempts += 1
        ok = tally.record(untraced.failure)
        if tally.record(traced.failure) and ok:
            pairs.append((untraced, traced))
    return pairs


def per_layer(wl, args, tally, clock, lines, bins, work):
    pairs = paired_passes(wl, args.seconds, tally, clock)
    traced = [t for _, t in pairs]
    values = {}
    for name in sorted({k for p in traced for k in p.layers}):
        values[name] = statistics.median(p.layers[name] for p in traced)
    extra, outcomes = wl.after_traced(traced)
    for failure in outcomes:
        tally.record(failure)
    values.update(extra)
    borrowed = {}
    for name in wl.companions:
        found = companion_layers(name, wl, tally, work)
        taken = sorted(set(found) - set(values))
        values.update((metric, found[metric]) for metric in taken)
        borrowed.update((metric, name) for metric in taken)
        if taken:
            lines.append(f"borrowed from one traced pass of {name}: "
                         + ", ".join(taken))
    probes, failure = workloads.run_probes(bins, args.seed, work)
    tally.record(failure)
    values.update(probes)
    if pairs:
        values["tracing.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in pairs)
        lines.append(metrics.timing_line(
            "untraced pass", "s", [u.wall_s for u, _ in pairs]))
        lines.append(metrics.timing_line(
            "traced pass", "s", [t.wall_s for t in traced]))
    selfs = [metrics.layer_self_times(p.spans) for p in traced if p.spans]
    for layer in sorted({k for s in selfs for k in s}):
        own = statistics.median(s.get(layer, 0.0) for s in selfs)
        lines.append(f"self time {layer}: median {own:.6g} s over "
                     f"{len(selfs)} traced passes")
    return values, {"borrowed": borrowed,
                    "spans": traced[0].spans if traced else []}


def companion_layers(name, wl, tally, work):
    """Layer metrics of one traced pass of the workload `name`, for the
    layers `wl` does not exercise itself."""
    cwork = work / f"companion-{name}"
    cwork.mkdir()
    other = workloads.make(name, wl.bins, wl.seed, wl.cap, cwork)
    if not tally.record(other.prepare()):
        return {}
    p = other.traced_pass()
    if not tally.record(p.failure):
        return {}
    extra, outcomes = other.after_traced([p])
    for failure in outcomes:
        tally.record(failure)
    return {**p.layers, **extra}


def result_metrics(spec_metrics, values):
    """Every metric of the BENCHMARK.json list, in its order and unit. A
    metric no operation produced (it failed) reads 0. A value under a name
    the list lacks is a benchmark bug."""
    names = {m["name"] for m in spec_metrics}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in spec_metrics}


def measure(args, spec, bins, build_root):
    nproc = len(os.sched_getaffinity(0))
    cap = min(MAX_THREADS, nproc)
    work = build_root / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.make(args.workload, bins, args.seed, cap, work)
    machine = machine_block(bins, work, nproc, cap, wl.threads)
    clock = Clock()
    tally = metrics.Tally()
    machine["rss_floor_mb"] = rss_floor(tally)
    lines = [f"perfbench: workload {args.workload}, seed {args.seed} (grid "
             f"spread {workloads.spread_for(args.seed)}, certify seed "
             f"{workloads.certify_seed_for(args.seed)}), {wl.threads} "
             f"thread(s), {args.seconds} s, trace {args.trace}",
             "machine: " + json.dumps(machine, sort_keys=True)]

    detail = {}
    if tally.record(wl.prepare()):
        passes(wl.run_pass, WARMUP_S, tally, clock, min_passes=1)
        if args.trace:
            values, detail = per_layer(wl, args, tally, clock, lines, bins,
                                       work)
            out = result_metrics(spec["per_layer"], values)
        else:
            values, detail = end_to_end(wl, args, tally, clock, lines)
            out = result_metrics(spec["end_to_end"], values)
    else:
        kind = "per_layer" if args.trace else "end_to_end"
        out = result_metrics(spec[kind], {})
    shutil.rmtree(work, ignore_errors=True)  # timing is over

    lines.append(f"operations: attempted {tally.attempted}, failed "
                 f"{tally.failed}, fail_ratio {tally.fail_ratio:g}")
    lines.extend(f"failure: {reason}" for reason in tally.reasons[:10])
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": out}
    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, machine=machine, summary=lines, **detail)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no ftmao sources here; run from the repository root")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    build_root = root / ".bench_build"
    procs.become_subreaper()
    try:
        bins = build(root, build_root / "cmake", len(os.sched_getaffinity(0)))
        procs.use_launcher(bins["perfbench_spawn"])
        return measure(args, spec, bins, build_root)
    except BuildError as e:
        log(f"perfbench: {e}")
        return 3
    finally:
        procs.reap_all()


if __name__ == "__main__":
    sys.exit(main())
