"""Tests of the benchmark's own arithmetic and of its metric names. Run
from the repository root (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def exit_(code=0, timed_out=False):
    return procs.Exit(["/bin/prog", "--flag"], code, timed_out, 0.1, 0.1, 1024)


def span(sid, parent, start, end, name="layer.call", **attrs):
    return {"name": name, "id": sid, "parent": parent, "start": start,
            "end": end, "thread": 1, "attrs": attrs}


class TimingTest(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(metrics.percentile(values, 50), 3.0)
        self.assertEqual(metrics.percentile(values, 80), 4.0)
        self.assertEqual(metrics.percentile(values, 81), 5.0)

    def test_percentile_needs_ten_samples_beyond_it(self):
        # 20 samples leave 5 beyond p75: only the median is reported.
        self.assertIsNone(metrics.reported_percentile(list(range(20))))
        # 40 leave exactly 10 beyond p75 (rank 30), and 4 beyond p90.
        self.assertEqual(metrics.reported_percentile(list(range(1, 41))),
                         (75.0, 30))
        # 100 leave 10 beyond p90 (rank 90) and 5 beyond p95.
        self.assertEqual(metrics.reported_percentile(list(range(1, 101))),
                         (90.0, 90))
        self.assertEqual(metrics.reported_percentile(list(range(1, 1001))),
                         (99.0, 990))

    def test_timing_line_states_the_sample_count(self):
        line = metrics.timing_line("wall_s", "s", [1.0, 2.0, 3.0])
        self.assertIn("median 2 s over 3 passes", line)
        self.assertIn("no percentile above p50", line)
        line = metrics.timing_line("setup_s", "s", list(range(1, 41)), "runs")
        self.assertIn("median 20.5 s over 40 runs, p75 30 s", line)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
                 span(3, 2, 2.0, 3.0)]
        own = metrics.self_times(spans)
        self.assertAlmostEqual(own[1], 7.0)  # the grandchild is inside 2
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0),
                 span(3, 1, 3.0, 8.0), span(4, 1, 9.0, 12.0)]
        # Children cover [1, 8) and [9, 10) of the parent.
        self.assertAlmostEqual(metrics.self_times(spans)[1], 2.0)

    def test_layer_self_times_sum_by_name_prefix(self):
        spans = [span(1, 0, 0.0, 10.0, "pass"),
                 span(2, 1, 0.0, 6.0, "thread_pool.task"),
                 span(3, 2, 1.0, 5.0, "batch_runner.run_sbg_batch"),
                 span(4, 1, 6.0, 9.0, "thread_pool.task")]
        self.assertEqual(metrics.layer_self_times(spans),
                         {"pass": 1.0, "thread_pool": 5.0,
                          "batch_runner": 4.0})


class FailureTest(unittest.TestCase):
    def test_tally_counts_every_kind_of_failure(self):
        tally = metrics.Tally()
        reference = b"n,f\n7,2\n"
        self.assertTrue(tally.record(
            metrics.failure([exit_()], reference, reference)))
        self.assertFalse(tally.record(metrics.failure([exit_(1)])))
        self.assertFalse(tally.record(metrics.failure([exit_(-9, True)])))
        corrupted = reference.replace(b"7", b"8")
        self.assertFalse(tally.record(
            metrics.failure([exit_()], reference, corrupted)))
        self.assertEqual((tally.attempted, tally.failed), (4, 3))
        self.assertAlmostEqual(tally.fail_ratio, 0.75)
        self.assertIn("output differs", tally.reasons[-1])

    def test_any_process_of_an_operation_fails_it(self):
        self.assertIsNotNone(metrics.failure([exit_(), exit_(3), exit_()]))

    def test_expected_exit_codes(self):
        self.assertIsNone(metrics.failure([exit_(1)], ok_codes=(0, 1)))
        self.assertIsNotNone(metrics.failure([exit_(2)], ok_codes=(0, 1)))

    def test_no_operation_means_no_failures(self):
        self.assertEqual(metrics.Tally().fail_ratio, 0.0)


class LauncherReportTest(unittest.TestCase):
    def test_report_line(self):
        self.assertEqual(procs.parse_report("-9 0.250000000 0.5 1412\n"),
                         (-9, 0.25, 0.5, 1412))

    def test_a_launcher_that_wrote_nothing_has_no_report(self):
        self.assertIsNone(procs.parse_report(""))
        self.assertIsNone(procs.parse_report("0 0.1\n"))


class LayerMetricsTest(unittest.TestCase):
    def test_pool_utilization_and_tail(self):
        spans = [span(1, 0, 0.0, 10.0, "pass", lanes=60, padded_lanes=64),
                 span(2, 1, 0.0, 0.5, "megabatch.plan_megabatches", tasks=3),
                 span(3, 1, 0.5, 10.0, "thread_pool.parallel_for_each",
                      threads=2)]
        for sid, (start, end, thread) in enumerate(
                [(0.5, 9.5, 7), (0.5, 3.5, 8), (3.5, 6.5, 8)], start=4):
            spans.append(dict(span(sid, 3, start, end, "thread_pool.task"),
                              thread=thread))
            spans.append(span(sid + 10, sid, start, end,
                              "batch_runner.run_sbg_batch", n=7, replicas=8,
                              rounds=1000))
        m = metrics.engine_layer_metrics(spans)
        self.assertAlmostEqual(m["thread_pool.utilization"], 15.0 / 19.0)
        # Thread 8 idles from 6.5; the pool hands back at 10.
        self.assertAlmostEqual(m["thread_pool.tail_s"], 3.5)
        self.assertAlmostEqual(m["batch_runner.busy_s"], 15.0)
        self.assertAlmostEqual(m["batch_runner.ns_per_agent_round.n7"],
                               15.0 / (3 * 8 * 7 * 1000) * 1e9)
        self.assertNotIn("batch_runner.ns_per_agent_round.n13", m)
        self.assertNotIn("trace.invariants_s", m)
        self.assertAlmostEqual(m["megabatch.max_task_share"], 9.0 / 15.0)
        self.assertAlmostEqual(m["megabatch.occupancy"], 60 / 64)
        self.assertEqual(m["megabatch.tasks"], 3)

    def test_idle_pool_thread_starts_the_tail_at_pool_start(self):
        pool = span(1, 0, 0.0, 4.5, "thread_pool.parallel_for_each",
                    threads=2)
        task = span(2, 1, 0.0, 4.0, "thread_pool.task")
        self.assertAlmostEqual(metrics.pool_tail(pool, [task], 2), 4.5)
        self.assertAlmostEqual(metrics.pool_tail(pool, [task], 1), 0.5)

    def test_a_pass_without_spans_measures_no_layer(self):
        self.assertEqual(metrics.engine_layer_metrics([]), {})

    def test_fabric_metrics_from_records_and_log_lines(self):
        workers = ["fabric: worker 'w0' claimed 9 lease(s) (1 stolen), "
                   "completed 9 shard(s); grid complete",
                   "fabric: worker 'w1' claimed 23 lease(s) (0 stolen), "
                   "completed 23 shard(s); grid complete"]
        caches = ["ftmao_sweep: cache: hits=3 misses=1 inserts=1 evictions=0 "
                  "mem_bytes=846 entries=4 disk_hits=3 disk_errors=0",
                  "ftmao_sweep: cache: hits=0 misses=2 inserts=2 evictions=0 "
                  "mem_bytes=9 entries=2 disk_hits=0 disk_errors=1"]
        m = metrics.fabric_layer_metrics(
            {"init": 0.1, "work": 2.0, "merge": 0.2}, [1.0, 1.5, 3.5], 2,
            workers, caches)
        self.assertEqual((m["fabric.claims"], m["fabric.steals"]), (32, 1))
        self.assertEqual((m["cache.hits"], m["cache.misses"],
                          m["cache.inserts"], m["cache.disk_errors"]),
                         (3, 3, 3, 1))
        self.assertAlmostEqual(m["fabric.utilization"], 6.0 / 4.0)
        self.assertEqual(m["fabric.shard_s.max"], 3.5)


def every_engine_span():
    """One span of every kind the probe records, over every sweep size."""
    spans = [span(1, 0, 0.0, 9.0, "pass", lanes=8, padded_lanes=8),
             span(2, 1, 0.0, 1.0, "megabatch.plan_megabatches", tasks=4),
             span(3, 1, 1.0, 9.0, "thread_pool.parallel_for_each", threads=1)]
    for i, n in enumerate((7, 13, 22, 31)):
        spans.append(span(10 + i, 3, 1.0 + i, 2.0 + i, "thread_pool.task"))
        spans.append(span(20 + i, 10 + i, 1.0 + i, 2.0 + i,
                          "batch_runner.run_sbg_batch", n=n, replicas=8,
                          rounds=100))
    spans.append(span(30, 3, 5.0, 6.0, "trace.check_sbg_invariants"))
    spans.append(span(31, 3, 6.0, 7.0,
                      "batch_async_runner.run_async_sbg_batch"))
    spans.append(span(32, 3, 7.0, 8.0,
                      "batch_vector_runner.run_vector_sbg_batch"))
    return spans


class FakeWorkload:
    """Instant passes, so run.py's loops can be driven without a build."""

    threads = 1
    companions = ()

    def __init__(self, layers=None):
        self.layers = layers or {}

    def run_pass(self):
        return workloads.Pass(None, 1.0, 0.5, 2048)

    setup_pass = run_pass

    def traced_pass(self):
        return workloads.Pass(None, 1.1, layers=self.layers)

    def after_traced(self, traced):
        return {"lp.audit_s": 0.25}, [None]


class MetricNamesTest(unittest.TestCase):
    def names(self, kind):
        return [m["name"] for m in SPEC[kind]]

    def test_listed_workloads_exist(self):
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], workloads.WORKLOADS)

    def test_end_to_end_metrics_are_the_listed_ones(self):
        args = types.SimpleNamespace(seconds=0.0)
        values, _ = run.end_to_end(FakeWorkload(), args, metrics.Tally(),
                                   run.Clock(), [])
        self.assertEqual(sorted(values), sorted(self.names("end_to_end")))
        self.assertIn("setup_s", values)

    def test_per_layer_metrics_are_the_listed_ones(self):
        produced = set(metrics.engine_layer_metrics(every_engine_span()))
        produced |= set(metrics.fabric_layer_metrics(
            {"init": 1.0, "work": 1.0, "merge": 1.0}, [], 4, [], []))
        produced |= set(workloads.PROBE_METRICS)
        produced |= {"lp.audit_s", "tracing.overhead_s"}
        self.assertEqual(sorted(produced), sorted(self.names("per_layer")))

    def traced_run(self, wl, companion=None):
        probes = {name: 1.0 for name in workloads.PROBE_METRICS}
        saved = workloads.run_probes, run.companion_layers
        workloads.run_probes = lambda bins, seed, work: (probes, None)
        run.companion_layers = companion or saved[1]
        try:
            args = types.SimpleNamespace(seconds=0.0, seed=1)
            lines = []
            values, detail = run.per_layer(wl, args, metrics.Tally(),
                                           run.Clock(), lines, {}, None)
        finally:
            workloads.run_probes, run.companion_layers = saved
        return values, detail, lines

    def test_traced_run_prints_every_per_layer_metric(self):
        layers = metrics.engine_layer_metrics(every_engine_span())
        values, detail, _ = self.traced_run(FakeWorkload(layers))
        out = run.result_metrics(SPEC["per_layer"], values)
        self.assertEqual(list(out), self.names("per_layer"))
        # Untraced and traced passes alternate; 1.1 s - 1.0 s per pair.
        self.assertAlmostEqual(out["tracing.overhead_s"]["value"], 0.1)
        self.assertAlmostEqual(out["lp.audit_s"]["value"], 0.25)
        # No companion ran, so the fabric layer has no value.
        self.assertEqual(out["fabric.claims"]["value"], 0.0)
        self.assertEqual(detail["borrowed"], {})

    def test_borrowed_layers_are_labelled_and_never_override(self):
        wl = FakeWorkload({"batch_runner.busy_s": 2.0})
        wl.companions = ("other-workload",)
        values, detail, lines = self.traced_run(
            wl, lambda name, w, tally, work: {"batch_runner.busy_s": 9.0,
                                              "fabric.claims": 8})
        self.assertEqual(values["batch_runner.busy_s"], 2.0)
        self.assertEqual(values["fabric.claims"], 8)
        self.assertEqual(detail["borrowed"],
                         {"fabric.claims": "other-workload"})
        self.assertIn("borrowed from one traced pass of other-workload: "
                      "fabric.claims", lines)

    def test_every_workload_has_companions_for_the_layers_it_lacks(self):
        for name, (cls, _) in workloads.WORKLOADS.items():
            classes = {workloads.WORKLOADS[c][0]
                       for c in workloads.COMPANIONS[name]}
            self.assertEqual(len({cls} | classes), 3)

    def test_an_unlisted_metric_is_refused(self):
        with self.assertRaises(KeyError):
            run.result_metrics(SPEC["end_to_end"], {"latency_ms": 1.0})

    def test_spec_respects_the_format_limits(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertLessEqual(len(m["name"]), 64)
            self.assertIn(m["better"], ("lower", "higher"))


class SeedTest(unittest.TestCase):
    def test_default_seed_is_the_default_grid(self):
        self.assertEqual(workloads.spread_for(1), 8.0)
        self.assertEqual(workloads.certify_seed_for(1), 1)

    def test_seeds_map_into_checked_ranges(self):
        for seed in (-5, 0, 1, 16, 17, 10**9):
            self.assertTrue(1 <= workloads.certify_seed_for(seed) <= 16)
            self.assertTrue(8.0 <= workloads.spread_for(seed) <= 11.75)


if __name__ == "__main__":
    unittest.main()
