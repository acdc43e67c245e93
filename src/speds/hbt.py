"""Hanbury Brown-Twiss detection and photon-correlation analysis.

``detect`` turns an ideal emission record into two detector click streams
(beam splitter, finite efficiency, Gaussian timing jitter, Poissonian dark
and background counts, optional per-arm spectral line filters).
``correlate`` builds the full pairwise coincidence histogram within a
+-window, and ``peak_area_analysis`` integrates pulsed histograms into
per-peak areas normalized to the uncorrelated far-peak level.

Dark and background rates are quoted in counts/s for the detector pair as a
whole and are split evenly over the two arms, mirroring how the signal is
split; with that convention the measured zero-delay correlation of an ideal
single-photon stream reduces exactly to ``g2_zero_closed_form``.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidInput
from .qd import EmissionRecord

AUTO = "auto"
CROSS = "cross"

_NS_PER_S = 1e9
_PAIR_CHUNK = 1 << 20  # pairs histogrammed per call in correlate; bounds its memory


@dataclass(frozen=True)
class DetectorPair:
    efficiency: float = 1.0  # per-arm detection probability after the splitter
    dark_rate: float = 0.0  # counts/s, both detectors combined
    background_rate: float = 0.0  # counts/s of uncorrelated background light
    timing_jitter_sigma: float = 0.0  # ps, Gaussian timing response
    splitter_ratio: float = 0.5  # probability of routing a photon to arm A
    dead_time: float = 0.0  # ns per arm; 0 disables (not part of the default chain)

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise InvalidInput(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0.0 < self.splitter_ratio < 1.0:
            raise InvalidInput(f"splitter_ratio must be in (0, 1), got {self.splitter_ratio}")
        for name in ("dark_rate", "background_rate", "timing_jitter_sigma", "dead_time"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise InvalidInput(f"{name} must be finite and >= 0, got {v}")

    @property
    def noise_rate_per_arm(self):
        """Uncorrelated click rate on each arm (dark + background), 1/ns."""
        return 0.5 * (self.dark_rate + self.background_rate) / _NS_PER_S


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
    to_b = rng.random(n) >= detectors.splitter_ratio
    passed = record.mask(line_filter_a) & ~to_b | record.mask(line_filter_b) & to_b
    passed &= rng.random(n) < detectors.efficiency
    sigma = detectors.timing_jitter_sigma * 1e-3  # ps -> ns
    t = record.time_ns + rng.normal(0.0, sigma, n) if sigma > 0 else record.time_ns
    passed &= (t >= 0.0) & (t < duration)

    noise = detectors.noise_rate_per_arm
    out = []
    for arm in (~to_b, to_b):
        clicks = t[passed & arm]
        if noise > 0:
            extra = rng.uniform(0.0, duration, rng.poisson(noise * duration))
            clicks = np.concatenate([clicks, extra])
        clicks = np.sort(clicks)
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
    tau_centers: np.ndarray  # ns, signed delays t_b - t_a
    counts: np.ndarray
    n_a: int
    n_b: int
    duration: float
    bin_width: float
    mode: str = AUTO
    source_lines: Tuple[Optional[str], Optional[str]] = (None, None)

    def g2(self):
        """Histogram normalized so an uncorrelated (Poissonian) pair gives 1."""
        if self.n_a == 0 or self.n_b == 0 or self.duration <= 0:
            raise InvalidInput("cannot normalize an empty correlation measurement")
        expected = self.n_a * self.n_b * self.bin_width / self.duration
        return self.counts / expected

    def g2_at(self, tau):
        idx = int(np.argmin(np.abs(self.tau_centers - tau)))
        return float(self.g2()[idx])

    def to_csv(self, path):
        g2 = self.g2()
        with open(path, "w") as fh:
            fh.write(f"# mode = {self.mode}\n")
            fh.write(f"# source_lines = {self.source_lines[0]},{self.source_lines[1]}\n")
            fh.write(f"# n_a = {self.n_a}\n")
            fh.write(f"# n_b = {self.n_b}\n")
            fh.write(f"# duration_ns = {self.duration:.9f}\n")
            fh.write("tau_ns,counts,g2_normalized\n")
            for tau, c, g in zip(self.tau_centers, self.counts, g2):
                fh.write(f"{tau:.6f},{int(c)},{g:.8e}\n")


def correlate(
    clicks_a,
    clicks_b,
    window,
    bin_width,
    duration,
    mode=AUTO,
    source_lines=(None, None),
) -> CorrelationHistogram:
    """Histogram of all pairwise delays t_b - t_a within +-window (ns).

    Full correlation (every pair counted), not start-stop, so side peaks at
    high repetition rates are unbiased.  Requires bin_width <= window / 50.
    """
    if window <= 0 or bin_width <= 0 or bin_width > window / 50.0:
        raise InvalidInput(
            f"need 0 < bin_width <= window/50, got window={window}, bin={bin_width}"
        )
    if duration <= 0:
        raise InvalidInput(f"duration must be > 0, got {duration}")
    a = np.asarray(clicks_a, dtype=float)
    b = np.asarray(clicks_b, dtype=float)
    n_bins = int(np.round(2 * window / bin_width))
    edges = np.linspace(-window, window, n_bins + 1)
    counts = np.zeros(n_bins)
    # For each start, the relevant stops lie in [t_a - window, t_a + window].
    lo = np.searchsorted(b, a - window, side="left")
    hi = np.searchsorted(b, a + window, side="right")
    # Pairs in one flat list: start i owns pairs first[i]:first[i + 1], whose
    # stops are lo[i] onwards.
    first = np.concatenate(([0], np.cumsum(hi - lo)))
    stop_offset = lo - first[:-1]
    s = 0
    while s < a.size:  # chunks of at most _PAIR_CHUNK pairs, or of one start
        e = max(int(np.searchsorted(first, first[s] + _PAIR_CHUNK, side="right")) - 1, s + 1)
        start = np.repeat(np.arange(s, e), hi[s:e] - lo[s:e])
        stop = np.arange(first[s], first[e]) + stop_offset[start]
        counts += np.histogram(b[stop] - a[start], bins=edges)[0]
        s = e
    centers = 0.5 * (edges[1:] + edges[:-1])
    return CorrelationHistogram(
        centers, counts, len(a), len(b), duration, bin_width, mode, tuple(source_lines)
    )


def g2_zero_closed_form(signal_rate, dark_rate, background_rate):
    """Zero-delay correlation of an ideal single-photon stream with noise.

    All rates share one unit.  With S the signal rate and N = dark +
    background the uncorrelated rate, accidental coincidences give

        g2(0) = (2 N S + N^2) / (S + N)^2.
    """
    for name, v in (
        ("signal_rate", signal_rate),
        ("dark_rate", dark_rate),
        ("background_rate", background_rate),
    ):
        if not np.isfinite(v) or v < 0:
            raise InvalidInput(f"{name} must be finite and >= 0, got {v}")
    noise = dark_rate + background_rate
    total = signal_rate + noise
    if total <= 0:
        raise InvalidInput("at least one of the rates must be positive")
    return (2.0 * noise * signal_rate + noise**2) / total**2


@dataclass
class PeakAreas:
    orders: np.ndarray  # peak index m (0 at zero delay)
    areas: np.ndarray  # normalized to the mean far-peak area
    raw_counts: np.ndarray  # integrated counts per peak, for error estimates
    repetition_rate: float  # MHz
    m_far: int  # normalization used the peaks with |m| >= m_far

    def area(self, m):
        idx = np.where(self.orders == m)[0]
        if idx.size == 0:
            raise InvalidInput(f"peak {m} is outside the analyzed range")
        return float(self.areas[idx[0]])

    def raw(self, m):
        idx = np.where(self.orders == m)[0]
        if idx.size == 0:
            raise InvalidInput(f"peak {m} is outside the analyzed range")
        return float(self.raw_counts[idx[0]])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(f"# m_far = {self.m_far}\n")
            fh.write("m,area\n")
            for m, a in zip(self.orders, self.areas):
                fh.write(f"{int(m)},{a:.8e}\n")


def peak_area_analysis(hist: CorrelationHistogram, repetition_rate, m_far=10) -> PeakAreas:
    """Integrate a pulsed correlation histogram into per-peak areas.

    Peak m collects the counts within half a period of m * period.  Areas are
    normalized by the mean area of the peaks with |m| >= m_far, which for any
    source without long-time memory is the Poisson level; area(0) then
    estimates g2(0).
    """
    if repetition_rate <= 0:
        raise InvalidInput(f"repetition rate must be > 0, got {repetition_rate}")
    if m_far < 1:
        raise InvalidInput(f"m_far must be >= 1, got {m_far}")
    period = 1e3 / repetition_rate
    if hist.bin_width > period:
        raise InvalidInput(
            f"histogram bins ({hist.bin_width} ns) are wider than the pulse period "
            f"({period:.4f} ns); peak windows would overlap"
        )
    m_lim = int(np.floor((hist.tau_centers[-1] + hist.bin_width / 2) / period + 0.5)) - 1
    if m_lim < m_far:
        raise InvalidInput(
            f"window covers peaks only to |m|={m_lim}, need far peaks |m|>={m_far}"
        )
    orders = np.arange(-m_lim, m_lim + 1)
    raw = np.empty(orders.size)
    for k, m in enumerate(orders):
        mask = np.abs(hist.tau_centers - m * period) < period / 2
        raw[k] = hist.counts[mask].sum()
    far = raw[np.abs(orders) >= m_far]
    norm = far.mean()
    if norm <= 0:
        raise InvalidInput("far peaks are empty; record is too short to normalize")
    return PeakAreas(orders, raw / norm, raw, repetition_rate, int(m_far))


def cross_correlate_lines(
    record: EmissionRecord,
    line_start,
    line_stop,
    detectors: DetectorPair,
    seed,
    window,
    bin_width,
) -> CorrelationHistogram:
    """Cross-correlation between two emission lines (start on one arm, stop on the other)."""
    a, b = detect(record, detectors, seed, line_filter_a=line_start, line_filter_b=line_stop)
    return correlate(
        a, b, window, bin_width, record.duration, mode=CROSS, source_lines=(line_start, line_stop)
    )
