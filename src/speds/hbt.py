"""Hanbury Brown-Twiss detection and photon-correlation analysis.

``detect`` turns an ideal emission record into two detector click streams
(beam splitter, finite efficiency, Gaussian timing jitter, Poissonian dark
counts, optional per-arm spectral line filters).
``correlate`` builds the full pairwise coincidence histogram within a
+-window, and ``peak_area_analysis`` integrates pulsed histograms into
per-peak areas normalized to the uncorrelated far-peak level.

The dark rate stands for every uncorrelated click source.  It is quoted in
counts/s for the detector pair as a whole and is split evenly over the two
arms, mirroring how the signal is split; with that convention the measured
zero-delay correlation of an ideal single-photon stream reduces exactly to
``g2_zero_closed_form``.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._table import write_table
from .errors import InvalidInput, number
from .qd import EmissionRecord

_NS_PER_S = 1e9
_DRAW_BLOCK = 1 << 16  # variates per draw in detect
_PAIR_CHUNK = 1 << 16  # starts per ranked block and pairs per histogram in correlate
# Stops per key, at most, that _rank merges; with more, a binary search per
# key costs less (see docs/DECISIONS.md)
_MERGE_RATIO = 4
# Pairs one correlate call may histogram: about 30 s at the 3e7 pairs/s
# measured on one Xeon core.  The presets pair at most 8e5.
_MAX_PAIRS = 10**9
# Bins of one correlation histogram, 2 * window / bin_width: its edges,
# counts and centres are each an array of about this length.  The presets
# use at most 800.
_MAX_CORRELATION_BINS = 10**6


@dataclass(frozen=True)
class DetectorPair:
    efficiency: float = 1.0  # per-arm detection probability after the splitter
    dark_rate: float = 0.0  # counts/s, both detectors combined
    timing_jitter_sigma: float = 0.0  # ps, Gaussian timing response
    dead_time: float = 0.0  # ns per arm; 0 disables (not part of the default chain)

    def __post_init__(self):
        number(self.efficiency, "efficiency", above=0.0, high=1.0)
        for name in ("dark_rate", "timing_jitter_sigma", "dead_time"):
            number(getattr(self, name), name, low=0.0)

    @property
    def noise_rate_per_arm(self):
        """Uncorrelated click rate on each arm, 1/ns."""
        return 0.5 * self.dark_rate / _NS_PER_S


def _blocks(n):
    """(start, stop) of each block of at most ``_DRAW_BLOCK`` in ``range(n)``."""
    return [(s, min(s + _DRAW_BLOCK, n)) for s in range(0, n, _DRAW_BLOCK)]


def detect(
    record: EmissionRecord,
    detectors: DetectorPair,
    seed: int,
    line_filter_a: Optional[str] = None,
    line_filter_b: Optional[str] = None,
):
    """Split, filter, thin, jitter and pollute the photon stream.

    Returns (clicks_a, clicks_b) as sorted arrays of click times in ns.
    A ``None`` filter passes every line; otherwise only the named line is
    kept on that arm (the rest is discarded, as by a spectrometer).
    """
    rng = np.random.default_rng(seed)
    duration = record.duration
    n = record.time_ns.size
    # Each variate is drawn in blocks, in the order of one full-length call
    # per variate: a Generator reads its stream in order, so the draws are
    # the same, without a full-length float64 temporary.
    to_b = np.empty(n, dtype=bool)  # a 50:50 splitter, as the dark counts split
    for s, e in _blocks(n):
        np.greater_equal(rng.random(e - s), 0.5, out=to_b[s:e])
    if line_filter_a == line_filter_b:  # both arms keep the same photons
        passed = record.mask(line_filter_a)
    else:
        passed = record.mask(line_filter_a) & ~to_b | record.mask(line_filter_b) & to_b
    for s, e in _blocks(n):
        passed[s:e] &= rng.random(e - s) < detectors.efficiency
    sigma = detectors.timing_jitter_sigma * 1e-3  # ps -> ns
    t = record.time_ns
    if sigma > 0:
        t = np.empty(n)
        for s, e in _blocks(n):
            np.add(record.time_ns[s:e], rng.normal(0.0, sigma, e - s), out=t[s:e])
    passed &= (t >= 0.0) & (t < duration)

    noise = detectors.noise_rate_per_arm
    out = []
    for arm in (~to_b, to_b):
        arm &= passed
        dark = rng.poisson(noise * duration) if noise > 0 else 0
        clicks = np.empty(np.count_nonzero(arm) + dark)
        at = 0
        for s, e in _blocks(n):  # the arm's photons, then its dark counts
            k = np.count_nonzero(arm[s:e])
            np.compress(arm[s:e], t[s:e], out=clicks[at : at + k])
            at += k
        for s, e in _blocks(dark):
            clicks[at + s : at + e] = rng.uniform(0.0, duration, e - s)
        clicks.sort()
        if detectors.dead_time > 0 and clicks.size:
            kept = [clicks[0]]
            for t_click in clicks[1:].tolist():
                if t_click - kept[-1] >= detectors.dead_time:
                    kept.append(t_click)
            clicks = np.array(kept)
        out.append(clicks)
    return out[0], out[1]


@dataclass
class CorrelationHistogram:
    edges: np.ndarray  # ns, of the signed delays t_b - t_a, as ``_correlation_edges`` lays them
    counts: np.ndarray
    n_a: int
    n_b: int
    duration: float
    source_lines: Tuple[Optional[str], Optional[str]] = (None, None)

    @property
    def tau_centers(self):
        return 0.5 * (self.edges[1:] + self.edges[:-1])

    @property
    def bin_width(self):
        """ns: 2 * window over the whole number of bins."""
        return _bin_width(self.edges)

    def g2(self):
        """Histogram normalized so an uncorrelated (Poissonian) pair gives 1."""
        if self.n_a == 0 or self.n_b == 0 or self.duration <= 0:
            raise InvalidInput("cannot normalize an empty correlation measurement")
        expected = self.n_a * self.n_b * self.bin_width / self.duration
        return self.counts / expected

    def g2_zero(self):
        """g2 in bin (n - 1) // 2: the bin ending at 0 for an even n, else the centred one."""
        return float(self.g2()[(self.counts.size - 1) // 2])

    def to_csv(self, path):
        line_a, line_b = self.source_lines
        # the same line on both arms is an autocorrelation
        header = (
            f"# mode = {'auto' if line_a == line_b else 'cross'}\n"
            f"# source_lines = {line_a},{line_b}\n# n_a = {self.n_a}\n# n_b = {self.n_b}\n"
            f"# duration_ns = {self.duration:.9f}\ntau_ns,counts,g2_normalized"
        )
        write_table(path, header, "%.6f,%d,%.8e", (self.tau_centers, self.counts, self.g2()))


def _correlation_edges(window, bin_width):
    """Edges of +-``window`` cut into a whole number of bins of about
    ``bin_width``, checked against the contract bin_width <= window / 50 and
    against ``_MAX_CORRELATION_BINS`` before any is laid out."""
    number(window, "correlation.window", above=0.0)
    number(bin_width, "correlation.bin_width", above=0.0)
    if bin_width > window / 50.0:
        raise InvalidInput(f"need bin_width <= window/50, got window={window}, bin={bin_width}")
    n_bins = np.round(2 * window / bin_width)
    if n_bins > _MAX_CORRELATION_BINS:
        raise InvalidInput(
            f"correlation.bin_width {bin_width:g} ns over a window of +-{window:g} ns gives "
            f"{n_bins:.3g} bins, more than the cap of {_MAX_CORRELATION_BINS:.0e}"
        )
    return np.linspace(-window, window, int(n_bins) + 1)


def _bin_width(edges):
    """The width of each of the equal bins between ``edges``."""
    return (edges[-1] - edges[0]) / (edges.size - 1)


def _rank(stops, keys, side):
    """``np.searchsorted(stops, keys, side)`` for sorted ``keys``, by merging.

    The stops that the keys can rank among lie between the first and the
    last key's rank.  When they are at most ``_MERGE_RATIO`` times as many as
    the keys, one stable argsort of the two sorted runs (a linear timsort
    merge) ranks them: the keys go before the stops for ``"left"`` and after
    them for ``"right"``, so a stop equal to a key counts exactly as
    searchsorted counts it.  Sparser keys are searched, which then costs
    less than the merge and holds nothing the size of the stops.
    """
    first, last = np.searchsorted(stops, keys[[0, -1]], side)
    between = stops[first:last]
    if between.size > _MERGE_RATIO * keys.size:
        return np.searchsorted(stops, keys, side)
    if side == "left":
        order = np.argsort(np.concatenate((keys, between)), kind="stable")
        at = np.flatnonzero(order < keys.size)
    else:
        order = np.argsort(np.concatenate((between, keys)), kind="stable")
        at = np.flatnonzero(order >= between.size)
    at -= np.arange(keys.size)  # the keys ranked before each key
    at += first
    return at


def correlate(
    clicks_a,
    clicks_b,
    window,
    bin_width,
    duration,
    source_lines=(None, None),
) -> CorrelationHistogram:
    """Histogram of all pairwise delays t_b - t_a within +-window (ns).

    Full correlation (every pair counted), not start-stop, so side peaks at
    high repetition rates are unbiased.  Requires bin_width <= window / 50
    and at most ``_MAX_CORRELATION_BINS`` bins; the histogram keeps the edges
    of its whole number of bins.  More than ``_MAX_PAIRS`` pairs within the
    window are rejected before any is counted.  The stops must be sorted;
    starts out of order are counted from a sorted copy, as the count does
    not depend on their order.  Beyond its inputs (and that copy) it holds
    two index arrays over the starts, the ranks of each block of
    ``_PAIR_CHUNK`` starts' window edges among the stops (``_rank``) and one
    chunk of at most ``_PAIR_CHUNK`` pairs (or one start's).
    """
    edges = _correlation_edges(window, bin_width)
    number(duration, "duration", above=0.0)
    a = np.asarray(clicks_a, dtype=float)
    b = np.asarray(clicks_b, dtype=float)
    if np.any(a[1:] < a[:-1]):
        a = np.sort(a)
    counts = np.zeros(edges.size - 1)
    # For each start, the relevant stops b[lo[i]:hi[i]] lie in
    # [t_a - window, t_a + window]; ranked one block of starts at a time.
    blocks = [slice(s, s + _PAIR_CHUNK) for s in range(0, a.size, _PAIR_CHUNK)]
    lo = np.empty(a.size, np.int32 if b.size < 2**31 else np.int64)
    hi = np.empty_like(lo)
    for block in blocks:
        lo[block] = _rank(b, a[block] - window, "left")
        hi[block] = _rank(b, a[block] + window, "right")
    pairs = hi.sum(dtype=np.int64) - lo.sum(dtype=np.int64)
    if pairs > _MAX_PAIRS:
        raise InvalidInput(
            f"window {window:g} ns holds {pairs:.3g} click pairs, "
            f"more than the cap of {_MAX_PAIRS:.0e}"
        )
    for block in blocks:
        block_lo, block_a = lo[block], a[block]
        n = hi[block] - block_lo
        # the block's pairs in one flat list: start i owns first[i]:first[i + 1]
        first = np.concatenate(([0], np.cumsum(n, dtype=np.int64)))
        i = 0
        while i < n.size:  # chunks of at most _PAIR_CHUNK pairs, or of one start
            j = max(int(np.searchsorted(first, first[i] + _PAIR_CHUNK, side="right")) - 1, i + 1)
            stop = np.repeat(block_lo[i:j] - first[i:j], n[i:j])
            stop += np.arange(first[i], first[j])
            delay = b[stop]
            delay -= np.repeat(block_a[i:j], n[i:j])
            counts += np.histogram(delay, bins=edges)[0]
            i = j
    return CorrelationHistogram(edges, counts, len(a), len(b), duration, tuple(source_lines))


def g2_zero_closed_form(signal_rate, noise_rate):
    """Zero-delay correlation of an ideal single-photon stream with noise.

    Both rates share one unit.  With S the signal rate and N the uncorrelated
    rate, accidental coincidences give

        g2(0) = (2 N S + N^2) / (S + N)^2.
    """
    for name, v in (("signal_rate", signal_rate), ("noise_rate", noise_rate)):
        number(v, name, low=0.0)
    total = signal_rate + noise_rate
    if total <= 0:
        raise InvalidInput("at least one of the rates must be positive")
    return (2.0 * noise_rate * signal_rate + noise_rate**2) / total**2


@dataclass
class PeakAreas:
    orders: np.ndarray  # peak index m (0 at zero delay)
    areas: np.ndarray  # normalized to the mean far-peak area
    raw_counts: np.ndarray  # integrated counts per peak, for error estimates
    m_far: int  # normalization used the peaks with |m| >= m_far

    def _index(self, m):
        idx = np.flatnonzero(self.orders == m)
        if idx.size == 0:
            raise InvalidInput(f"peak {m} is outside the analyzed range")
        return idx[0]

    def area(self, m):
        return float(self.areas[self._index(m)])

    def raw(self, m):
        return float(self.raw_counts[self._index(m)])

    def to_csv(self, path):
        write_table(path, f"# m_far = {self.m_far}\nm,area", "%d,%.8e", (self.orders, self.areas))


def _peak_reach(edges, repetition_rate, m_far):
    """The highest peak order |m| whose window [(m - 1/2) P, (m + 1/2) P) lies
    within correlation ``edges`` at the period P of ``repetition_rate`` (MHz).

    Checks that ``m_far`` is an integer >= 1 within that reach and that the
    bins are no wider than P; ``peak_area_analysis`` and the CLI share it,
    the CLI before the source is sampled, on the edges ``correlate`` will use.
    """
    number(repetition_rate, "repetition_rate", above=0.0)
    number(m_far, "m_far", low=1, integer=True)
    period = 1e3 / repetition_rate
    bin_width = _bin_width(edges)
    if bin_width > period:
        raise InvalidInput(
            f"histogram bins ({bin_width:.4f} ns) are wider than the pulse period "
            f"({period:.4f} ns); peak windows would overlap"
        )
    m_lim = int(np.floor(edges[-1] / period + 0.5)) - 1
    if m_lim < m_far:
        raise InvalidInput(
            f"window covers peaks only to |m|={m_lim}, need far peaks |m|>=m_far={m_far}"
        )
    return m_lim


def peak_area_analysis(hist: CorrelationHistogram, repetition_rate, m_far=10) -> PeakAreas:
    """Integrate a pulsed correlation histogram into per-peak areas.

    Peak m collects the counts in [(m - 1/2) period, (m + 1/2) period), each
    bin cut by a window edge shared in proportion to its overlap.  Areas are
    normalized by the mean area of the peaks with |m| >= m_far, which for any
    source without long-time memory is the Poisson level; area(0) then
    estimates g2(0).
    """
    m_lim = _peak_reach(hist.edges, repetition_rate, m_far)
    period = 1e3 / repetition_rate
    orders = np.arange(-m_lim, m_lim + 1)
    # the cumulative count, linear within each bin, read at the window edges
    cumulative = np.concatenate(([0.0], np.cumsum(hist.counts)))
    bounds = (np.arange(-m_lim, m_lim + 2) - 0.5) * period
    raw = np.diff(np.interp(bounds, hist.edges, cumulative))
    norm = raw[np.abs(orders) >= m_far].mean()
    if norm <= 0:
        raise InvalidInput("far peaks are empty; record is too short to normalize")
    return PeakAreas(orders, raw / norm, raw, int(m_far))


def cross_correlate_lines(
    record: EmissionRecord,
    line_start,
    line_stop,
    detectors: DetectorPair,
    seed,
    window,
    bin_width,
) -> CorrelationHistogram:
    """Cross-correlation between two emission lines (start on one arm, stop on the other).

    The record is released once ``detect`` has read it: when the caller hands
    it over, keeping no reference (``cli._correlated``), it is freed before
    ``correlate`` runs on CPython >= 3.11, whose calls move their arguments
    into the callee's frame.  A record the caller keeps is left unchanged.
    """
    duration = record.duration
    a, b = detect(record, detectors, seed, line_filter_a=line_start, line_filter_b=line_stop)
    del record
    return correlate(a, b, window, bin_width, duration, (line_start, line_stop))
