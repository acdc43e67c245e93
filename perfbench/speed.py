"""The host's speed, sampled while the workload runs, to scale timings by.

The baseline machine is a guest on a shared host, and the speed of one
process there switches between a fast and a slow mode many times a second;
the share of slow time drifts over minutes.  A run's wall time follows that
share, so two runs of the same code can differ by a factor of two.

``Sampler`` times a small fixed kernel (interpreter work and small numpy
calls, the two kinds of work speds does) every ``INTERVAL_S`` of wall time,
from a SIGALRM handler in the workload's own thread.  The samples spread
evenly over the CLI runs, so their mean over a run measures how slow the host
was during that run.  ``scaled`` turns a wall time into seconds at the
reference speed, at which the kernel takes ``REFERENCE_S``.  Set-up times
are scaled the same way, by the time of ``import numpy`` in a fresh
interpreter against ``REFERENCE_IMPORT_S`` (``run.setup_seconds``).

The kernel is the benchmark's own code, so a change to speds does not change
it; a speds change that makes the workload faster or slower moves the scaled
time by the same share.
"""

import contextlib
import math
import signal
import statistics
import time

REFERENCE_S = 1e-3  # the kernel's time at the reference speed
REFERENCE_IMPORT_S = 0.1  # `import numpy` in a fresh interpreter at the reference speed
INTERVAL_S = 0.02  # wall time between samples
MIN_SAMPLES = 5  # a run shorter than this many samples also uses earlier ones


def kernel():
    """About 1 ms of fixed work: a Python loop, then small numpy calls."""
    import numpy as np  # here, so that importing this module leaves numpy unloaded

    acc, kept = 0.0, []
    for i in range(2000):
        x = math.sqrt(i + 1.0) * 1.0001
        if i % 3:
            acc += x
        else:
            kept.append(x)
    phases = np.linspace(0.1, 1.0, 64) + 0.5j
    m = np.eye(2, dtype=complex)
    for _ in range(55):
        e = np.exp(1j * phases * acc * 1e-6)
        m = m @ np.array([[e[0], e[1]], [e[2], e[3]]]) / abs(e[0])
    return acc + sum(kept) + abs(m[0, 0])


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(seconds, kernel_s, reference_s=REFERENCE_S):
    """``seconds`` measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * reference_s / kernel_s


class Sampler:
    """Times the kernel every INTERVAL_S while installed (a context manager)."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, kernel seconds)

    def _tick(self, signum, frame):
        took = time_kernel()
        self.samples.append((time.perf_counter(), took))

    def __enter__(self):
        kernel()  # first calls of the numpy ufuncs are slower
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def measure(self, fn):
        """(net wall time of ``fn()``, mean kernel time during it, fn's result).

        The net time leaves out the samples taken during the call.  The mean
        covers at least the MIN_SAMPLES latest samples.
        """
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        while len(self.samples) < MIN_SAMPLES:  # only at the very start of a run
            self._tick(None, None)
        inside = [took for t, took in self.samples if start < t <= end]
        upto = sum(1 for t, _ in self.samples if t <= end)
        n = max(len(inside), MIN_SAMPLES)
        recent = [took for _, took in self.samples[max(0, upto - n) : max(upto, n)]]
        return end - start - sum(inside), statistics.fmean(recent), result
