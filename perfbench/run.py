"""Benchmark of the speds CLI on preset-driven workloads.

Run from the repository root:

    python3 perfbench/run.py --workload optics --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

``--trace 0`` times the workload's CLI runs with no tracer installed, scales
each run's time to a reference host speed sampled during it (speed.py), and
reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).  ``--trace 1``
alternates untraced and traced passes over the workload and reports the
per-layer metrics and the tracing overhead.  Each run goes through
``speds.cli.main`` in this process, one at a time, with the seed passed as
``--seed``; its outputs are checked before the next run starts.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 means the benchmark
could not measure (no speds sources, a run that does not import, or a traced
pass that missed a layer); no result line is printed then.
"""

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

import speed
from tracing import CoverageError, Tracer, check_coverage, layer_metrics
from workloads import WORKLOADS, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 21
MAX_SEED = 2**31 - 1
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ALL_PRESETS = [p for w in WORKLOADS.values() for _, p in w.runs]

# Imports speds.cli in a fresh interpreter, then says so on stdout.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from speds.cli import main; print('ready', flush=True)"
)
# The same for numpy alone: the reference that set-up times are scaled by.
_REFERENCE_PROBE = "import numpy; print('ready', flush=True)"


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_fraction"):
        return "ratio"
    return "count"


def result_line(attempted, failed, metrics, units):
    """The final JSON line: run counts and every metric with its unit."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def environment():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe(code, *args):
    """Seconds from starting a fresh interpreter on ``code`` to its 'ready' line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, *args], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchmarkError(f"a fresh interpreter failed on: {code}")
    return elapsed


def probe_setup():
    """Seconds to import speds.cli, then numpy alone, each in a fresh interpreter."""
    return probe(_PROBE, SRC), probe(_REFERENCE_PROBE)


def setup_seconds(probes):
    """Median set-up time of speds, scaled to the reference speed by numpy's.

    Set-up is mostly the operating system's work (starting a process, mapping
    and reading files), which the speed kernel does not follow; importing
    numpy alone is the same kind of work, and the two drift together.
    """
    speds_s = statistics.median(s for s, _ in probes)
    numpy_s = statistics.median(n for _, n in probes)
    return speed.scaled(speds_s, numpy_s, speed.REFERENCE_IMPORT_S)


class Runner:
    """Makes one workload's CLI runs, checks their outputs and counts failures."""

    def __init__(self, seed, out_root, main, configs):
        self.seed = seed
        self.out_root = out_root
        self.main = main  # called with the argv list, like speds.cli.main
        self.configs = configs  # preset name -> config dict, for the checks
        self.attempted = 0
        self.failed = 0
        self.sampler = None  # a speed.Sampler: runs are then timed at the reference speed
        self.unscaled = []  # with a sampler, (net wall time, mean kernel time) of each run

    def run(self, command, preset, tracer=None):
        """Wall time of one CLI run; a failed run is counted and reported."""
        out = os.path.join(self.out_root, preset)
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--preset", preset, "--seed", str(self.seed), "--out", out]
        self.attempted += 1

        def call():
            try:
                return self.main(argv)
            except Exception:  # a crash is a failed run, not the end of the benchmark
                traceback.print_exc()
                return None

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            with tracer.installed() if tracer else contextlib.nullcontext():
                if self.sampler is None:
                    start = time.perf_counter()
                    code = call()
                    wall = time.perf_counter() - start
                else:
                    net, kernel_s, code = self.sampler.measure(call)
                    self.unscaled.append((net, kernel_s))
                    wall = speed.scaled(net, kernel_s)
        if code == 0:
            problems = check_outputs(preset, self.configs[preset], out)
        else:
            problems = [f"exit code {code}"]
        if problems:
            self.failed += 1
            print(f"FAILED {preset}: {'; '.join(problems)}", file=sys.stderr)
        return wall

    def timed(self, workload, seconds, setup):
        """Per preset, the wall times at the reference speed of runs made
        round-robin for ``seconds``.

        Every preset runs at least once; after that a run starts only if its
        median duration so far still fits before the deadline.  Set-up probes
        (``probe_setup``) are appended to ``setup`` between the runs, spread
        evenly over the time, until there are SETUP_PROBES.
        """
        walls = {p: [] for _, p in workload.runs}
        start = time.perf_counter()
        deadline = start + seconds
        with speed.Sampler() as self.sampler:
            for i in itertools.count():
                due = SETUP_PROBES * (time.perf_counter() - start) / seconds
                while len(setup) < min(due, SETUP_PROBES):
                    with self.sampler.paused():
                        setup.append(probe_setup())
                command, preset = workload.runs[i % len(workload.runs)]
                past = walls[preset]
                if past and time.perf_counter() + statistics.median(past) > deadline:
                    break
                past.append(self.run(command, preset))
        self.sampler = None
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup())
        return walls

    def traced(self, workload, seconds):
        """Per-layer metrics: lower medians over traced passes, plus the overhead.

        Untraced and traced passes alternate, at least one of each, while the
        next pair still fits in ``seconds``.
        """
        plain, traced, per_pass = [], [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
            plain.append(sum(self.run(c, p) for c, p in workload.runs))
            tracer = Tracer()
            walls = {p: self.run(c, p, tracer) for c, p in workload.runs}
            traced.append(sum(walls.values()))
            stats = tracer.stats()
            check_coverage(stats, workload)
            per_pass.append(layer_metrics(stats, {**dict.fromkeys(ALL_PRESETS, 0.0), **walls}))
        # the lower median is one pass's value, so counts stay whole numbers
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics, len(traced)


def measure(workload, seed, seconds, trace, out_root):
    """(attempted, failed, metrics, units) of one benchmark run."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    setup = [probe_setup()]  # also checks that speds imports
    sys.path.insert(0, SRC)
    from speds import cli
    from speds.presets import load_preset

    configs = {p: load_preset(p) for _, p in workload.runs}
    # cli.main is looked up at each call, so traced passes call its wrapper
    runner = Runner(seed, out_root, lambda argv: cli.main(argv), configs)
    if trace:
        metrics, passes = runner.traced(workload, seconds)
        print(f"traced passes: {passes}")
        units = {k: unit_of(k) for k in metrics}
    else:
        walls = runner.timed(workload, seconds, setup)
        for preset, times in walls.items():
            print(f"  {preset}: median {statistics.median(times):.4f} s of n={len(times)}")
        net = sum(n for n, _ in runner.unscaled)
        kernel_ms = 1000 * net / sum(n / k for n, k in runner.unscaled)
        print(
            f"as measured: setup {statistics.median(s for s, _ in setup):.4f} s, "
            f"numpy import {statistics.median(n for _, n in setup):.4f} s "
            f"(reference {speed.REFERENCE_IMPORT_S:g} s); {net:.2f} s of CLI runs, "
            f"kernel {kernel_ms:.3f} ms (reference {1000 * speed.REFERENCE_S:g} ms)"
        )
        metrics = {
            "wall_s": sum(statistics.median(t) for t in walls.values()),
            "setup_s": setup_seconds(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        f"error_rate = {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} failed of {runner.attempted} runs)"
    )
    return runner.attempted, runner.failed, metrics, units


def run_all(args):
    """Each workload in its own fresh interpreter, one after the other."""
    attempted = failed = 0
    metrics, units = {}, {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}", *lines[:-1], sep="\n")
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, entry in result["metrics"].items():
            metrics[f"{name}.{key}"] = entry["value"]
            units[f"{name}.{key}"] = entry["unit"]
    return attempted, failed, metrics, units


def run_seconds():
    """The run length BENCHMARK.json fixes, the default for --seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be in [0, {MAX_SEED}]")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "speds", "cli.py")):
        print(f"benchmark error: no speds sources under {SRC}", file=sys.stderr)
        return 2
    print(
        f"speds benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    out_base = os.path.join(ROOT, ".perfbench_out")
    out_root = os.path.join(out_base, f"{args.workload}-{os.getpid()}")
    try:
        if args.workload == "all":
            attempted, failed, metrics, units = run_all(args)
        else:
            attempted, failed, metrics, units = measure(
                WORKLOADS[args.workload], args.seed, args.seconds, args.trace, out_root
            )
    except (BenchmarkError, CoverageError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_base)
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
