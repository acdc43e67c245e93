"""Tests of the benchmark's own code: output checks, failure counting, speed
scaling, tracing and the result line.

    python3 perfbench/selftest.py

The file is not named test_*.py, so the repository's test suite does not
collect it and its wall time stays comparable across commits.
"""

import contextlib
import io
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
from tracing import CoverageError, Tracer, check_coverage, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs  # noqa: E402

sys.path.insert(0, run.SRC)


def write_outputs(out_dir, summary, histogram=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    if histogram is not None:
        taus, counts, n_a, n_b, duration = histogram
        with open(os.path.join(out_dir, "histogram.csv"), "w") as fh:
            fh.write(f"# n_a = {n_a}\n# n_b = {n_b}\n# duration_ns = {duration}\n")
            fh.write("tau_ns,counts,g2_normalized\n")
            for tau, c in zip(taus, counts):
                fh.write(f"{tau:.6f},{c},0\n")


def temp_dir(test):
    path = tempfile.mkdtemp()
    test.addCleanup(shutil.rmtree, path, ignore_errors=True)
    return path


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.dir = temp_dir(self)

    def dc_eq1(self, measured):
        # expected counts per bin: 1e4 * 1e4 * 0.05 / 1e4 = 500; SE at 375 counts is 0.039
        hist = ([-0.025, 0.025], [375, 375], 10000, 10000, 10000.0)
        summary = {"g2_zero_measured": measured, "g2_zero_eq1_prediction": 0.75}
        write_outputs(self.dir, summary, hist)
        return check_outputs("dc_eq1", {}, self.dir)

    def test_g2_within_limit_passes(self):
        self.assertEqual(self.dc_eq1(0.75 + 5.0 * math.sqrt(375) / 500), [])

    def test_g2_beyond_limit_fails(self):
        self.assertEqual(len(self.dc_eq1(0.75 + 7.0 * math.sqrt(375) / 500)), 1)

    def test_cascade_without_asymmetry_fails(self):
        write_outputs(self.dir, {"g2_max_positive_tau": 0.9, "g2_min_negative_tau": 0.1})
        self.assertEqual(len(check_outputs("cascade_x2_x", {}, self.dir)), 1)

    def test_top_mirror_optimum(self):
        write_outputs(self.dir, {"argmax_top_periods": 4, "best_efficiency": 0.12})
        self.assertEqual(check_outputs("top_mirror_study", {}, self.dir), [])
        write_outputs(self.dir, {"argmax_top_periods": 5, "best_efficiency": 0.12})
        self.assertEqual(len(check_outputs("top_mirror_study", {}, self.dir)), 1)

    def test_jitter_fit_uses_the_preset_lifetime(self):
        write_outputs(self.dir, {"fitted_decay_ns": 2.2})
        self.assertEqual(check_outputs("fig8_jitter", {"model": {"tau_x": 2.1}}, self.dir), [])
        self.assertEqual(
            len(check_outputs("fig8_jitter", {"model": {"tau_x": 0.45}}, self.dir)), 1
        )

    def test_missing_or_non_finite_summary_fails(self):
        self.assertEqual(len(check_outputs("laser_80mhz", {}, self.dir)), 1)
        write_outputs(self.dir, {"a": {"b": float("nan")}, "c": 1.0})
        self.assertEqual(check_outputs("laser_80mhz", {}, self.dir), ["a.b is not finite"])

    def test_missing_output_key_is_a_failure_not_a_crash(self):
        write_outputs(self.dir, {"g2_zero_measured": 0.7})
        self.assertEqual(len(check_outputs("ghz_ideal", {}, self.dir)), 1)


class FailureCounting(unittest.TestCase):
    def runner(self, main):
        return run.Runner(7, temp_dir(self), main, {"homogeneous": {}})

    def run_once(self, main):
        runner = self.runner(main)
        with contextlib.redirect_stderr(io.StringIO()):
            runner.run("emission-pattern", "homogeneous")
        return runner

    def test_nonzero_exit_counts_as_failed(self):
        runner = self.run_once(lambda argv: 3)
        self.assertEqual((runner.attempted, runner.failed), (1, 1))

    def test_crash_counts_as_failed(self):
        def crash(argv):
            raise RuntimeError("boom")

        self.assertEqual(self.run_once(crash).failed, 1)

    def test_failed_check_counts_as_failed(self):
        def wrong(argv):
            write_outputs(argv[argv.index("--out") + 1], {"total_power": 0.5})
            return 0

        self.assertEqual(self.run_once(wrong).failed, 1)

    def test_correct_run_passes_the_seed(self):
        seen = []

        def right(argv):
            seen.append(argv[argv.index("--seed") + 1])
            write_outputs(argv[argv.index("--out") + 1], {"total_power": 1.0})
            return 0

        self.assertEqual(self.run_once(right).failed, 0)
        self.assertEqual(seen, ["7"])

    def test_result_line_reports_failures(self):
        line = run.result_line(4, 1, {"wall_s": 1.5}, {"wall_s": "s"})
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {"wall_s": {"value": 1.5, "unit": "s"}})


class SpeedScaling(unittest.TestCase):
    def test_time_at_half_speed_scales_to_half(self):
        self.assertAlmostEqual(speed.scaled(2.0, 2 * speed.REFERENCE_S), 1.0)

    def test_setup_is_scaled_by_the_numpy_import_time(self):
        probes = [(0.30, 0.20), (0.12, 0.08), (0.90, 0.60)]
        self.assertAlmostEqual(run.setup_seconds(probes), 0.30 * speed.REFERENCE_IMPORT_S / 0.20)

    def test_measure_leaves_out_the_samples_taken_during_the_call(self):
        sampler = speed.Sampler()
        with mock.patch.object(speed, "time_kernel", lambda: 0.004):

            def work():
                sampler._tick(None, None)
                sampler._tick(None, None)
                return 7

            sampler._tick(None, None)
            net, kernel_s, result = sampler.measure(work)
        self.assertEqual(result, 7)
        self.assertAlmostEqual(kernel_s, 0.004)
        self.assertLess(net, 0.001)  # the 8 ms of samples inside are not counted
        self.assertEqual(len(sampler.samples), speed.MIN_SAMPLES)

    def test_runs_are_timed_at_the_reference_speed(self):
        runner = run.Runner(7, temp_dir(self), lambda argv: 0, {"homogeneous": {}})
        runner.sampler = mock.Mock(measure=lambda fn: (0.5, 2 * speed.REFERENCE_S, fn()))
        with contextlib.redirect_stderr(io.StringIO()):
            wall = runner.run("emission-pattern", "homogeneous")
        self.assertAlmostEqual(wall, 0.25)
        self.assertEqual(runner.unscaled, [(0.5, 2 * speed.REFERENCE_S)])

    def test_sampler_samples_while_installed_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as sampler:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            with sampler.paused():
                self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
            self.assertGreater(signal.getitimer(signal.ITIMER_REAL)[1], 0)
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertTrue(all(took > 0 for _, took in sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        leaf = tracer.wrap("multilayer.leaf", lambda: None)
        mid = tracer.wrap("dipole.mid", lambda: leaf())
        top = tracer.wrap("cli.top", lambda: (mid(), None))
        top()
        stats = tracer.stats()
        self.assertEqual(stats["cli.top"]["time_s"], 10.0)
        self.assertEqual(stats["cli.top"]["self_s"], 7.0)
        self.assertEqual(stats["dipole.mid"]["self_s"], 2.0)
        self.assertEqual(stats["multilayer.leaf"]["self_s"], 1.0)
        self.assertEqual(stats["cli.top"]["calls:dipole.mid"], 1)

    def test_coverage_check(self):
        w = Workload("w", (), active=("qd.simulate",), idle=("dipole",))
        check_coverage({"qd.simulate": {"calls": 1}}, w)
        with self.assertRaises(CoverageError):
            check_coverage({}, w)
        with self.assertRaises(CoverageError):
            check_coverage({"qd.simulate": {"calls": 1}, "dipole.emission_pattern": {}}, w)

    def test_wrappers_reach_names_imported_by_value_and_are_removed(self):
        from speds import cli, designer, dipole, multilayer

        sites = [
            (multilayer, "stack_rt"),
            (dipole, "stack_rt"),
            (designer, "direct_collection_efficiency"),
            (cli, "sweep_bottom_mirror"),
            (cli, "optimize_top_mirror"),
        ]
        before = [getattr(m, a) for m, a in sites]
        with Tracer().installed():
            for (module, attr), original in zip(sites, before):
                self.assertIs(getattr(module, attr).__wrapped__, original)
            self.assertIs(dipole.stack_rt, multilayer.stack_rt)
        self.assertEqual([getattr(m, a) for m, a in sites], before)

    def test_traced_counts_repeat_at_one_seed(self):
        from speds import cli
        from speds.presets import load_preset

        runs = (("emission-pattern", "homogeneous"), ("hbt", "laser_80mhz"))
        counts = []
        for _ in range(2):
            runner = run.Runner(3, temp_dir(self), cli.main, {p: load_preset(p) for _, p in runs})
            tracer = Tracer()
            walls = {p: runner.run(c, p, tracer) for c, p in runs}
            self.assertEqual(runner.failed, 0)
            m = layer_metrics(tracer.stats(), walls)
            counts.append({k: v for k, v in m.items() if run.unit_of(k) == "count"})
        self.assertEqual(counts[0], counts[1])
        for name in ("multilayer.stack_rt.calls", "dipole.adaptive_integral.nodes",
                     "hbt.detect.clicks", "hbt.correlate.pairs"):
            self.assertGreater(counts[0][name], 0, name)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        names = list(layer_metrics({}, dict.fromkeys(run.ALL_PRESETS, 0.0)))
        names.append("trace.overhead_s")
        self.assertEqual([m["name"] for m in spec["per_layer"]], names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]))

    def test_seed_outside_the_accepted_range_is_refused(self):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit):
            run.parse_args(["--workload", "optics", "--seed", "-1"])

    def test_commit_is_read_from_packed_refs(self):
        root = temp_dir(self)
        os.makedirs(os.path.join(root, ".git"))
        with open(os.path.join(root, ".git", "HEAD"), "w") as fh:
            fh.write("ref: refs/heads/main\n")
        with open(os.path.join(root, ".git", "packed-refs"), "w") as fh:
            fh.write("# pack-refs\nabc123 refs/heads/main\n")
        self.assertEqual(run.git_commit(root), "abc123")
        self.assertEqual(run.git_commit(temp_dir(self)), "unknown")


if __name__ == "__main__":
    unittest.main()
