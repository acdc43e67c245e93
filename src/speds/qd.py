"""Stochastic state-machine model of an electrically driven quantum dot.

Kinetic Monte Carlo over the states {empty, X, X2, shelved}:

* while injection is on, exciton pairs are captured at ``capture_rate``
  (empty -> X -> X2, capped at X2);
* radiative decays X2 -> X and X -> empty emit the X2 and X photons;
* after each radiative return to ground the dot shelves (charged/dark,
  non-emitting) with probability ``shelve_probability`` and recovers at
  ``unshelve_rate``;
* during sweep-out windows between pulses, excitonic occupation is removed
  without emission at ``sweep_rate``; the ``full_reset`` regime additionally
  clears the shelved state, erasing all memory between pulses.

Under DC drive every X decay renews the dot, so the record is built from
independent emission cycles drawn as arrays.  Under pulsed drive the rates
are piecewise constant across pulse edges and an event loop re-draws the
waiting time at every edge, which is exact for exponential clocks.
"""

import warnings
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from .errors import InvalidInput

LINE_X = "X"
LINE_X2 = "X2"
LINE_MARKER = "marker"  # diagnostic line emitted from the shelved state
LINES = (LINE_X, LINE_X2, LINE_MARKER)  # line code (int8) -> line name

MODE_DC = "DC"
MODE_PULSED = "pulsed"

SWEEP_NONE = "none"
SWEEP_ELECTRONS = "electrons_only"
SWEEP_FULL = "full_reset"

_EMPTY, _X, _X2, _SHELVED = 0, 1, 2, 3

_BLOCK = 1 << 16  # random variates drawn per numpy call in the pulsed event loop
_CYCLES = 1 << 14  # renewal cycles, and at most as many markers, per DC batch


def _require_finite(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is float and not np.isfinite(value):
            raise InvalidInput(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class QDModel:
    tau_x: float = 2.1  # ns, X radiative lifetime
    tau_x2: float = 0.68  # ns, X2 radiative lifetime
    capture_rate: float = 2.0  # 1/ns while injection is on
    shelve_probability: float = 0.2
    unshelve_rate: float = 0.3  # 1/ns
    sweep_rate: float = 50.0  # 1/ns while sweep-out is active
    marker_rate: float = 0.0  # 1/ns, emitted while shelved (diagnostics only)

    def __post_init__(self):
        _require_finite(self)
        if self.tau_x <= 0 or self.tau_x2 <= 0:
            raise InvalidInput("radiative lifetimes must be > 0")
        for name in ("capture_rate", "unshelve_rate", "sweep_rate", "marker_rate"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.shelve_probability <= 1.0:
            raise InvalidInput(
                f"shelve_probability must be in [0, 1], got {self.shelve_probability}"
            )


@dataclass(frozen=True)
class DriveProgram:
    mode: str = MODE_PULSED
    repetition_rate: float = 80.0  # MHz
    pulse_width: float = 300.0  # ps
    sweep_out_regime: str = SWEEP_NONE
    duration: float = 1e4  # ns of simulated time
    sweep_delay: float = 0.0  # ns between pulse end and sweep-out onset

    def __post_init__(self):
        _require_finite(self)
        if self.mode not in (MODE_DC, MODE_PULSED):
            raise InvalidInput(f"mode must be DC or pulsed, got {self.mode!r}")
        if self.sweep_out_regime not in (SWEEP_NONE, SWEEP_ELECTRONS, SWEEP_FULL):
            raise InvalidInput(f"unknown sweep-out regime {self.sweep_out_regime!r}")
        if self.duration <= 0:
            raise InvalidInput("duration must be > 0")
        if self.mode == MODE_PULSED:
            if self.repetition_rate <= 0 or self.pulse_width <= 0:
                raise InvalidInput("pulsed mode needs repetition_rate > 0 and pulse_width > 0")
            if self.pulse_width * 1e-3 >= self.period:
                raise InvalidInput(
                    f"pulse width {self.pulse_width} ps must be shorter than the "
                    f"period {self.period * 1e3:.1f} ps"
                )
            if self.duration < self.period:
                raise InvalidInput(
                    f"duration {self.duration} ns does not contain one full period "
                    f"({self.period:.3f} ns)"
                )
            if self.sweep_delay < 0 or (
                self.pulse_width * 1e-3 + self.sweep_delay >= self.period
            ):
                raise InvalidInput("sweep_delay must fit between pulse end and next pulse")

    @property
    def period(self):
        """Pulse period in ns."""
        return 1e3 / self.repetition_rate


def _line_code(line):
    if line not in LINES:
        raise InvalidInput(f"unknown emission line {line!r}; known lines: {', '.join(LINES)}")
    return LINES.index(line)


@dataclass
class EmissionRecord:
    """Photon stream as two parallel arrays in time order: ``time_ns``
    (float64, ns) and ``line_code`` (int8 index into ``LINES``)."""

    time_ns: np.ndarray
    line_code: np.ndarray
    duration: float

    def __post_init__(self):
        self.time_ns = np.asarray(self.time_ns, dtype=np.float64)
        self.line_code = np.asarray(self.line_code, dtype=np.int8)
        if self.time_ns.ndim != 1 or self.time_ns.shape != self.line_code.shape:
            raise InvalidInput("time_ns and line_code must be 1-d arrays of one length")

    @property
    def events(self):
        """The record as (time_ns, line_code) rows, derived from the arrays."""
        return np.rec.fromarrays([self.time_ns, self.line_code], names="time_ns,line_code")

    def mask(self, line=None):
        """Boolean mask of the photons on ``line``; ``None`` selects every photon."""
        if line is None:
            return np.ones(self.time_ns.size, dtype=bool)
        return self.line_code == _line_code(line)

    def times(self, line=None):
        return self.time_ns[self.mask(line)]

    def to_csv(self, path):
        rows = np.rec.fromarrays([self.time_ns, np.array(LINES)[self.line_code]])
        np.savetxt(path, rows, fmt="%.9f,%s", header="time_ns,line", comments="")

    @classmethod
    def from_csv(cls, path, duration=None):
        with warnings.catch_warnings():  # a header-only file is an empty record
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype="f8,U8", ndmin=1)
        names, index = np.unique(rows["f1"], return_inverse=True)
        codes = np.array([_line_code(n) for n in names.tolist()], dtype=np.int8)[index]
        if duration is None:
            duration = float(rows["f0"][-1]) if rows.size else 0.0
        return cls(rows["f0"], codes, duration)


def _phase_schedule(drive: DriveProgram):
    """Per-period list of (start_ns, injection_on, sweep_on) phase segments."""
    if drive.mode == MODE_DC:
        return [(0.0, True, False)]
    end = drive.pulse_width * 1e-3  # pulse end, ns
    sweep = drive.sweep_out_regime != SWEEP_NONE
    if sweep and drive.sweep_delay > 0:
        return [(0.0, True, False), (end, False, False), (end + drive.sweep_delay, False, True)]
    return [(0.0, True, False), (end, False, sweep)]


def _rate_table(model: QDModel, drive: DriveProgram):
    """Per phase segment, per state: (total rate, thresholds, next states, lines).

    Each branch is one transition out of the state.  ``thresholds`` are the
    cumulative branch probabilities without the final 1, so a uniform draw u
    takes branch ``bisect_right(thresholds, u)``; ``lines`` holds the code of
    the photon each branch emits, or -1.  Shelving after an X decay is a
    branch of its own, so it needs no second draw.
    """
    full = drive.sweep_out_regime == SWEEP_FULL
    shelve = 0.0 if full else model.shelve_probability
    x, x2, marker = range(len(LINES))
    table = []
    for _, injecting, sweeping in _phase_schedule(drive):
        capture = model.capture_rate * injecting
        sweep = model.sweep_rate * sweeping
        branches = (  # (rate, next state, line) out of empty, X, X2, shelved
            [(capture, _X, -1)],
            [((1 - shelve) / model.tau_x, _EMPTY, x), (shelve / model.tau_x, _SHELVED, x),
             (capture, _X2, -1), (sweep, _EMPTY, -1)],
            [(1 / model.tau_x2, _X, x2), (sweep, _EMPTY, -1)],
            [(model.unshelve_rate, _EMPTY, -1), (model.marker_rate, _SHELVED, marker),
             (sweep * full, _EMPTY, -1)],
        )
        row = []
        for out in branches:
            rates, states, lines = zip(*([b for b in out if b[0] > 0.0] or [(0.0, _EMPTY, -1)]))
            total = sum(rates)
            row.append((total, (np.cumsum(rates[:-1]) / total).tolist(), states, lines))
        table.append(row)
    return table


def _variates(draw):
    """Endless iterator over the values of ``draw(_BLOCK)``, block by block."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, repeat(_BLOCK))))


def _branch_probability(entry, next_state):
    """Probability that the transition out of a rate-table entry goes to ``next_state``."""
    total, thresholds, states, _ = entry
    if total == 0.0:
        return 0.0
    probs = np.diff([0.0, *thresholds, 1.0])
    return float(probs[np.equal(states, next_state)].sum())


def simulate(model: QDModel, drive: DriveProgram, seed: int) -> EmissionRecord:
    """Generate a timestamped photon-emission record; deterministic per seed.

    A DC drive is sampled as renewal cycles (``_dc_record``), a pulsed drive
    by Gillespie's direct method over the rate table of each phase segment
    (``_pulsed_record``).
    """
    rng = np.random.default_rng(seed)
    table = _rate_table(model, drive)
    if drive.mode == MODE_DC:
        return _dc_record(table[0], drive.duration, rng)
    return _pulsed_record(table, drive, rng)


def _dc_record(row, duration, rng):
    """DC photon record as i.i.d. renewal cycles, drawn ``_CYCLES`` at a time.

    Under DC drive every X decay is a renewal point.  The cycle that ends at
    one X photon is: if the previous X decay shelved the dot, M marker
    photons at Exp(u + m) spacing (M ~ Geometric) and the unshelving dwell
    Exp(u + m); the capture wait Exp(c); K ~ Geometric X -> X2 -> X loops,
    each an Exp(c + 1/tau_x) dwell in X and an Exp(1/tau_x2) dwell in X2
    ending in an X2 photon; and the final Exp(c + 1/tau_x) dwell in X ending
    in the X photon.  The first cycle starts empty.  Every photon's increment
    since the previous photon goes into one array, whose cumsum gives the
    times.  A batch holds at most ``_CYCLES`` markers: the shelved dwell that
    reaches that count is cut after it and, the dwell being memoryless, the
    next batch starts shelved.  Rates and branch probabilities come from the
    DC row of the rate table.
    """
    capture = row[_EMPTY][0]
    if capture == 0.0:
        return EmissionRecord([], [], duration)
    shelf_rate = row[_SHELVED][0]
    # mean dwell that ends in a photon, by line code
    dwell = np.array([1.0 / row[_X][0], 1.0 / row[_X2][0],
                      1.0 / shelf_rate if shelf_rate > 0.0 else np.inf])
    p_loop = _branch_probability(row[_X], _X2)
    p_shelve = _branch_probability(row[_X], _SHELVED) / (1.0 - p_loop)
    p_unshelve = _branch_probability(row[_SHELVED], _EMPTY)
    x, x2, marker = range(len(LINES))
    batches, t, start_shelved = [], 0.0, False
    while t < duration:
        shelved = rng.random(_CYCLES) < p_shelve
        shelved[0] = start_shelved
        excitonic = rng.geometric(1.0 - p_loop, _CYCLES)  # X2 photons + the X photon
        markers = np.zeros(_CYCLES, dtype=np.int64)
        markers[shelved] = (
            rng.geometric(p_unshelve, np.count_nonzero(shelved)) - 1
            if p_unshelve > 0.0 else _CYCLES
        )
        budget = np.cumsum(np.minimum(markers, _CYCLES))
        n = int(np.searchsorted(budget, _CYCLES))  # complete cycles
        if n < _CYCLES:  # cycle n's shelved dwell fills the marker budget: cut it there
            markers[n] = _CYCLES - (budget[n - 1] if n else 0)
            excitonic[n] = 0
            markers, excitonic = markers[: n + 1], excitonic[: n + 1]
            start_shelved = True
        else:
            start_shelved = rng.random() < p_shelve
        ends = np.cumsum(markers + excitonic)  # one past each cycle's last photon
        first = ends - excitonic  # each cycle's first excitonic photon, after its markers
        codes = np.full(ends[-1], x2, dtype=np.int8)
        codes[ends[:n] - 1] = x
        if markers.any():
            edge = np.zeros(ends[-1] + 1, dtype=np.int8)
            edge[first - markers] += 1
            edge[first] -= 1
            codes[np.cumsum(edge[:-1]) > 0] = marker
        inc = rng.standard_exponential(codes.size) * dwell[codes]
        loop = np.flatnonzero(codes == x2)  # an X2 photon also waits out an X dwell
        inc[loop] += rng.standard_exponential(loop.size) * dwell[x]
        first = first[:n]
        inc[first] += rng.standard_exponential(n) / capture
        unshelved = first[shelved[:n]]
        inc[unshelved] += rng.standard_exponential(unshelved.size) * dwell[marker]
        inc[0] += t
        times = np.cumsum(inc)
        t = times[-1]
        batches.append((times, codes))
    times, codes = (np.concatenate(col) for col in zip(*batches))
    keep = int(np.searchsorted(times, duration))
    return EmissionRecord(times[:keep], codes[:keep], duration)


def _pulsed_record(table, drive, rng):
    """Pulsed photon record by Gillespie's direct method, one segment at a time."""
    next_exp = _variates(rng.standard_exponential).__next__
    next_uniform = _variates(rng.random).__next__
    duration, period = drive.duration, drive.period
    ends = [start for start, _, _ in _phase_schedule(drive)][1:] + [period]
    times, codes = [], []
    state, t = _EMPTY, 0.0
    # Explicit (period, segment) cursor: deriving the segment from float t is
    # unsafe at boundaries, where rounding can stall the clock.
    n_per, i_seg = 0, 0
    seg_end = min(ends[0], duration)
    while t < duration:
        total, thresholds, next_states, lines = table[i_seg][state]
        if total > 0.0:
            t_next = t + next_exp() / total
            if t_next < seg_end:
                t = t_next
                k = bisect_right(thresholds, next_uniform()) if thresholds else 0
                if lines[k] >= 0:
                    times.append(t)
                    codes.append(lines[k])
                state = next_states[k]
                continue
        # No transition before the segment edge: the rates change there, so
        # the waiting time is redrawn (exact for exponential clocks).
        t = seg_end
        i_seg += 1
        if i_seg == len(ends):
            i_seg, n_per = 0, n_per + 1
        seg_end = min(n_per * period + ends[i_seg], duration)
    return EmissionRecord(times, codes, duration)


def decay_profile(record: EmissionRecord, drive: DriveProgram, line=LINE_X, bin_ps=50.0):
    """Histogram of emission times modulo the drive period.

    Returns (bin_centers_ns, counts).  Empty records give all-zero counts.
    """
    if drive.mode != MODE_PULSED:
        raise InvalidInput("decay_profile requires a pulsed drive")
    if bin_ps <= 0:
        raise InvalidInput(f"bin width must be > 0, got {bin_ps}")
    period = drive.period
    bin_ns = bin_ps * 1e-3
    n_bins = max(int(np.ceil(period / bin_ns)), 1)
    edges = np.linspace(0.0, period, n_bins + 1)
    counts, _ = np.histogram(np.mod(record.times(line), period), bins=edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, counts


def fit_decay_time(centers, counts, t_start, t_stop):
    """Exponential-tail lifetime from a log-linear least-squares fit."""
    mask = (centers >= t_start) & (centers <= t_stop) & (counts > 0)
    if np.count_nonzero(mask) < 3:
        raise InvalidInput("not enough populated bins in the fit window")
    x = centers[mask]
    y = np.log(counts[mask].astype(float))
    slope, _ = np.polyfit(x, y, 1, w=np.sqrt(counts[mask]))
    if slope >= 0:
        raise InvalidInput("histogram tail is not decaying in the fit window")
    return -1.0 / slope


def quantum_efficiency_factor(emission_window_ns, tau_ns):
    """Fraction of excitons that radiate before a hard sweep-out cutoff."""
    if emission_window_ns < 0 or tau_ns <= 0:
        raise InvalidInput("window must be >= 0 and lifetime > 0")
    return 1.0 - np.exp(-emission_window_ns / tau_ns)


def throughput_ratio(collection_gain, rate_gain, qe_factor):
    """Photon-throughput improvement: product of the three factors."""
    for name, v in (
        ("collection_gain", collection_gain),
        ("rate_gain", rate_gain),
        ("qe_factor", qe_factor),
    ):
        if not np.isfinite(v) or v <= 0:
            raise InvalidInput(f"{name} must be finite and > 0, got {v}")
    return collection_gain * rate_gain * qe_factor


def poisson_photon_record(rate_per_ns, duration_ns, seed, line=LINE_X) -> EmissionRecord:
    """Classical Poissonian reference source (laser-like), for control runs."""
    if not (0.0 <= rate_per_ns < np.inf and 0.0 < duration_ns < np.inf):
        raise InvalidInput("rate must be finite and >= 0 and duration finite and > 0")
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_per_ns * duration_ns)
    times = np.sort(rng.uniform(0.0, duration_ns, n))
    return EmissionRecord(times, np.full(times.size, _line_code(line)), duration_ns)


def pulsed_poisson_record(
    repetition_rate_mhz, mean_photons_per_pulse, duration_ns, seed, jitter_ns=0.05, line=LINE_X
) -> EmissionRecord:
    """Pulsed classical source: Poisson photon number per pulse, Gaussian spread."""
    if not (0.0 < repetition_rate_mhz < np.inf and 0.0 < duration_ns < np.inf):
        raise InvalidInput("repetition rate and duration must be finite and > 0")
    if not (0.0 <= mean_photons_per_pulse < np.inf and 0.0 <= jitter_ns < np.inf):
        raise InvalidInput("mean photons per pulse and jitter must be finite and >= 0")
    rng = np.random.default_rng(seed)
    period = 1e3 / repetition_rate_mhz
    n_pulses = int(duration_ns / period)
    pulse = np.repeat(np.arange(n_pulses), rng.poisson(mean_photons_per_pulse, n_pulses))
    times = pulse * period + np.abs(rng.normal(0.0, jitter_ns, pulse.size))
    times = np.sort(times[times < duration_ns])
    return EmissionRecord(times, np.full(times.size, _line_code(line)), duration_ns)
