"""Stochastic state-machine model of an electrically driven quantum dot.

Kinetic Monte Carlo over the states {empty, X, X2, shelved}:

* while injection is on, exciton pairs are captured at ``capture_rate``
  (empty -> X -> X2, capped at X2);
* radiative decays X2 -> X and X -> empty emit the X2 and X photons;
* after each radiative return to ground the dot shelves (charged/dark,
  non-emitting) with probability ``shelve_probability`` and recovers at
  ``unshelve_rate``;
* during sweep-out windows between pulses, excitonic occupation is removed
  without emission at ``sweep_rate``.  The ``full_reset`` regime never
  shelves the dot, during the pulse or after it (``_rate_table`` sets the
  shelving probability to 0 for the whole period), so its
  ``shelve_probability`` and ``unshelve_rate`` change no output; see
  docs/DECISIONS.md.

Under DC drive every X decay renews the dot, so the record is built from
independent emission cycles drawn as arrays.  Under pulsed drive a path
through one period depends only on the state at its start, so each start
state keeps a pool of i.i.d. one-period paths, drawn as arrays by
Gillespie's method one phase segment at a time, and the k-th period that
starts in a state takes the next unused path of that state's pool.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, number

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

_CYCLES = 1 << 14  # renewal cycles, and at most as many markers, per DC batch
# Mean photons per DC renewal cycle, 1 + capture_rate * tau_x, at most: a
# batch then holds about 1.6e7 photons at most.  The presets have at most 5.2.
_MAX_CYCLE_PHOTONS = 1000
_DECAY_BIN_PS = 50.0  # default decay-profile bin width
_MAX_DECAY_BINS = 10**6  # decay-profile bins per drive period
_FIT_BINS = 3  # fewest populated bins in its window that a decay-time fit takes
_LANES = 1 << 16  # one-period paths, at most, drawn together into a pulsed pool
_FIRST_LANES = 1 << 10  # fewest paths drawn into a pulsed pool at once, as at first
_POISSON_JITTER_NS = 0.05  # Gaussian spread of a pulsed Poisson photon after its pulse


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
        for name in ("tau_x", "tau_x2"):
            number(getattr(self, name), name, above=0.0)
        for name in ("capture_rate", "unshelve_rate", "sweep_rate", "marker_rate"):
            number(getattr(self, name), name, low=0.0)
        number(self.shelve_probability, "shelve_probability", low=0.0, high=1.0)


@dataclass(frozen=True)
class DriveProgram:
    mode: str = MODE_PULSED
    repetition_rate: float = 80.0  # MHz
    pulse_width: float = 300.0  # ps
    sweep_out_regime: str = SWEEP_NONE
    duration: float = 1e4  # ns of simulated time
    sweep_delay: float = 0.0  # ns between pulse end and sweep-out onset

    def __post_init__(self):
        for name in ("repetition_rate", "pulse_width", "duration"):
            number(getattr(self, name), name, above=0.0)
        number(self.sweep_delay, "sweep_delay", low=0.0)
        if self.mode not in (MODE_DC, MODE_PULSED):
            raise InvalidInput(f"mode must be DC or pulsed, got {self.mode!r}")
        if self.sweep_out_regime not in (SWEEP_NONE, SWEEP_ELECTRONS, SWEEP_FULL):
            raise InvalidInput(f"unknown sweep_out_regime {self.sweep_out_regime!r}")
        if self.mode == MODE_DC:  # sweep-out runs between pulses only
            for name, off in (("sweep_out_regime", SWEEP_NONE), ("sweep_delay", 0.0)):
                if getattr(self, name) != off:
                    raise InvalidInput(
                        f"a DC drive has no sweep-out: {name} must be {off!r}, "
                        f"got {getattr(self, name)!r}"
                    )
        if self.mode == MODE_PULSED:
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
            if self.pulse_width * 1e-3 + self.sweep_delay >= self.period:
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


def _rate_table(model: QDModel, drive: DriveProgram):
    """The model's rates as arrays, one entry per phase segment of a period:
    (start, end, mean dwell, bounds, next states, lines).

    A pulsed period is the pulse (injection on), then the time between
    pulses, whose sweep-out, if any, starts ``sweep_delay`` after the pulse;
    a DC drive is one segment with no end.  Each branch is one transition out
    of a state; shelving after an X decay is a branch of its own, so it needs
    no second draw.  The mean dwell is indexed by state; a state with total
    rate 0 dwells forever (``inf``).  ``bounds`` holds, state after state,
    s and s + each cumulative branch probability of state s but the last (1),
    and drops the leading 0, so a lane in state s with a uniform draw u takes
    the branch at ``searchsorted(bounds, s + u, "right")`` (held to s's own
    branches; ``_branch_lookup`` finds it without a search) of the next
    states and lines, which list every state's branches in order.  The next
    states are ``np.intp``, so the pulsed lanes hold their states at native
    width and gather by them with ``take``; ``lines`` holds the code (int8)
    of the photon each branch emits, or -1.
    """
    if drive.mode == MODE_DC:
        phases, period = [(0.0, True, False)], np.inf
    else:
        pulse = drive.pulse_width * 1e-3  # pulse end, ns
        sweep = drive.sweep_out_regime != SWEEP_NONE
        if sweep and drive.sweep_delay > 0:
            phases = [(0.0, True, False), (pulse, False, False),
                      (pulse + drive.sweep_delay, False, True)]
        else:
            phases = [(0.0, True, False), (pulse, False, sweep)]
        period = drive.period
    ends = [start for start, _, _ in phases[1:]] + [period]
    shelve = 0.0 if drive.sweep_out_regime == SWEEP_FULL else model.shelve_probability
    x, x2, marker = range(len(LINES))
    table = []
    for (start, injecting, sweeping), end in zip(phases, ends):
        capture = model.capture_rate * injecting
        sweep = model.sweep_rate * sweeping
        branches = (  # (rate, next state, line) out of empty, X, X2, shelved
            [(capture, _X, -1)],
            [((1 - shelve) / model.tau_x, _EMPTY, x), (shelve / model.tau_x, _SHELVED, x),
             (capture, _X2, -1), (sweep, _EMPTY, -1)],
            [(1 / model.tau_x2, _X, x2), (sweep, _EMPTY, -1)],
            [(model.unshelve_rate, _EMPTY, -1), (model.marker_rate, _SHELVED, marker)],
        )
        dwell, bounds, next_states, lines = [], [], [], []
        for s, out in enumerate(branches):
            rates, states, codes = zip(*([b for b in out if b[0] > 0.0] or [(0.0, _EMPTY, -1)]))
            total = sum(rates)
            dwell.append(1.0 / total if total > 0.0 else np.inf)
            bounds += [s + t for t in (0.0, *(np.cumsum(rates[:-1]) / total).tolist())]
            next_states += states
            lines += codes
        table.append((start, end, np.array(dwell), np.array(bounds[1:]),
                      np.array(next_states, dtype=np.intp), np.array(lines, dtype=np.int8)))
    return table


def _branch_probability(segment, state, next_state):
    """Probability that a jump out of ``state`` in a rate-table segment goes to ``next_state``."""
    _, _, dwell, bounds, next_states, _ = segment
    if dwell[state] == np.inf:
        return 0.0
    edges = np.append(0.0, bounds)  # branch b is taken for s + u in [edges[b], edges[b + 1])
    own = np.flatnonzero(np.floor(edges) == state)
    probs = np.diff(np.append(edges[own], state + 1.0))
    return float(probs[next_states[own] == next_state].sum())


def simulate(model: QDModel, drive: DriveProgram, seed: int) -> EmissionRecord:
    """Generate a timestamped photon-emission record; deterministic per seed.

    A DC drive is sampled as renewal cycles (``_dc_record``), a pulsed drive
    as a walk over pools of one-period paths, one pool per start state
    (``_pooled_record``).
    """
    rng = np.random.default_rng(seed)
    segments = _rate_table(model, drive)
    if drive.mode == MODE_DC:
        return _dc_record(segments[0], drive.duration, rng)
    return _pooled_record(segments, drive, rng)


def _dc_record(segment, duration, rng):
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
    DC segment of the rate table.
    """
    _, _, state_dwell, *_ = segment
    capture = 1.0 / state_dwell[_EMPTY]
    if capture == 0.0:
        return EmissionRecord([], [], duration)
    dwell = state_dwell[_X:]  # mean dwell that ends in a photon, by line code
    p_loop = _branch_probability(segment, _X, _X2)
    if (1.0 - p_loop) * _MAX_CYCLE_PHOTONS < 1.0:  # 1 / (1 - p_loop) photons per cycle
        raise InvalidInput(
            "tau_x is too long beside capture_rate: X decays only after about "
            f"capture_rate * tau_x X2 photons, more than the cap of {_MAX_CYCLE_PHOTONS}"
        )
    p_shelve = _branch_probability(segment, _X, _SHELVED) / (1.0 - p_loop)
    p_unshelve = _branch_probability(segment, _SHELVED, _EMPTY)
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
        inc = rng.standard_exponential(codes.size) * dwell.take(codes)
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


def _branch_lookup(bounds, n_states):
    """``pick(state, u)``: the branch that each lane in ``state`` takes on
    its uniform draw ``u`` in [0, 1), ``searchsorted(bounds, state + u,
    "right")`` held to the state's own branches, found without a search.

    With v = s + u, the search counts the bounds at or below s, ``base[s]``,
    and then those of s's own bounds, strictly between s and s + 1, that v
    reaches; ``thresholds[j, s]`` holds s's j-th own bound, or ``inf`` past
    its last.  The count stops at s's last branch, ``last[s]``, as the
    search clamped there does: for u within 2^-52 of 1 and s >= 1, ``s + u``
    rounds up to s + 1, where the search alone finds the next state's first
    branch, and the lane takes its own last branch, as the draws just below
    would.  Each own bound costs one gather and one comparison per lane,
    less than the binary search (see docs/DECISIONS.md).
    """
    edges = np.arange(n_states + 1.0)
    base = np.searchsorted(bounds, edges[:-1], side="right")
    last = np.searchsorted(bounds, edges[1:])  # one past s's own bounds: its last branch
    thresholds = np.full((int((last - base).max()), n_states), np.inf)
    for s in range(n_states):
        thresholds[: last[s] - base[s], s] = bounds[base[s] : last[s]]

    def pick(state, u):
        v = state + u
        branch = base.take(state)
        for own in thresholds:
            branch += v >= own.take(state)
        return branch

    return pick


def _period_paths(segments, start, lanes, rng):
    """``lanes`` i.i.d. paths through one period, each starting in ``start``.

    All lanes are stepped together, one pass over the live lanes per
    Gillespie step, one phase segment at a time.  A lane leaves a segment
    once its next jump falls past the segment's end, where the rates change
    and the memoryless wait is redrawn, or once its state has no way out.
    Each step draws one wait and then one branch per live lane.  The live
    lanes are held by index: a step that loses lanes takes the indices of
    those that stay by ``np.flatnonzero`` and gathers their state, time and
    lane number; after each branch the live lanes write their new state to
    ``end``, so a lane that leaves has its end state there already (a lane
    that leaves before its first branch keeps the state it entered with).
    The emitting lanes are taken by index too.  States, branches and lane
    numbers are ``np.intp`` and every gather is a ``take``: a gather by an
    int8 index array casts it first and costs several times more.  The
    photons are grouped by one stable argsort of their lane numbers, on a
    16-bit key where ``_lane_key`` allows, which numpy sorts by radix.
    Returns (end state per lane, photons per lane as
    uint32, photon times within the period, line codes), the photons
    grouped by lane in time order.
    """
    end = np.full(lanes, start, dtype=np.intp)
    lane_hits, time_hits, code_hits = [], [], []
    for seg_start, seg_end, dwell, bounds, next_states, lines in segments:
        lane, state = np.arange(lanes), end.copy()
        t = np.full(lanes, seg_start)
        pick = _branch_lookup(bounds, dwell.size)
        while lane.size:
            t += rng.standard_exponential(lane.size) * dwell.take(state)
            go = t < seg_end
            if not go.all():
                live = np.flatnonzero(go)
                lane, state, t = lane.take(live), state.take(live), t.take(live)
            branch = pick(state, rng.random(lane.size))
            code = lines.take(branch)
            emit = np.flatnonzero(code >= 0)
            lane_hits.append(lane.take(emit))
            time_hits.append(t.take(emit))
            code_hits.append(code.take(emit))
            state = next_states.take(branch)
            end[lane] = state
    lane = np.concatenate(lane_hits).astype(_lane_key(lanes))
    # each lane's photons came in time order, so a stable sort groups them
    order = np.argsort(lane, kind="stable")
    counts = np.bincount(lane, minlength=lanes).astype(np.uint32)
    times, codes = np.concatenate(time_hits), np.concatenate(code_hits)
    return end, counts, times.take(order), codes.take(order)


def _lane_key(lanes):
    """The dtype that groups ``lanes`` lane numbers: 16 bits when they fit,
    which numpy's stable argsort sorts by radix, else ``np.intp``."""
    return np.uint16 if lanes <= 1 << 16 else np.intp


def _pooled_record(segments, drive, rng):
    """Pulsed photon record from pools of one-period paths, one pool per start state.

    The k-th period that starts in state s takes the next unused path of s's
    pool.  The pools are i.i.d. sequences and which path a period takes
    depends only on earlier paths, so the record is exact (the stack, or
    random-map, form of a Markov chain).  A pool is drawn when the walk
    first reaches its state, so only reachable states get one, and grows by
    at most ``_LANES`` paths at a time, sized from the visit rate seen so
    far.

    Within s's pool the paths that end outside s close the runs of s: each
    run lasts some periods and then moves to another state, so the walk
    makes one step per state change.  It reads s's unused runs, as (length,
    next state), through one iterator, ``runs[s]``, which ``grow`` replaces
    with the new chunk's runs once it is spent; the last run may end inside
    a pool's tail of self-loops.  The walk records only each run's state,
    one byte per run; ``_run_lengths`` takes the lengths back from the
    pools' run arrays, and ``_gathered`` gathers each pool chunk from the
    runs it serves (contiguous ranges of periods), one chunk at a time.  A
    photon's time is its period's start plus its time within the period, so
    one stable sort on the times merges the states' photons into period
    order.
    """
    period, n = drive.period, int(np.ceil(drive.duration / drive.period))
    n_states = segments[0][2].size
    size, last_leave = [0] * n_states, [-1] * n_states
    runs = [iter(()).__next__] * n_states  # each state's unused (length, next state) runs
    pool_runs = [[] for _ in range(n_states)]  # each state's run lengths, per chunk
    drawn = [[] for _ in range(n_states)]  # (counts, times, codes) per chunk

    def grow(s, lanes):
        end, counts, times, codes = _period_paths(segments, s, lanes, rng)
        out = np.flatnonzero(end != s)
        leaves = out + size[s]  # their places in the pool
        lengths = np.diff(leaves, prepend=last_leave[s])
        runs[s] = zip(lengths.tolist(), end[out].tolist()).__next__
        pool_runs[s].append(lengths)
        if leaves.size:
            last_leave[s] = int(leaves[-1])
        size[s] += lanes
        drawn[s].append((counts, times, codes))

    path = bytearray()  # each run's state, in walk order
    append = path.append
    k, s = 0, _EMPTY
    while k < n:
        try:
            step, to = runs[s]()
        except StopIteration:  # every run drawn for s is used
            loops = size[s] - 1 - last_leave[s]  # self-loops after the last run
            if loops < n - k:
                # s's visits still to come at its visit rate so far, with 10 % to spare
                seen = 1.1 * (n - k) * size[s] / max(k, 1)
                grow(s, int(min(_LANES, n - k - loops, max(_FIRST_LANES, seen))))
                continue
            step, to = n - k, s  # the walk ends inside them, one last run of s
        append(s)
        k += step
        s = to

    path = np.frombuffer(path, dtype=np.int8)
    times, codes = _gathered(path, _run_lengths(path, pool_runs, n), drawn, period)
    order = np.argsort(times, kind="stable")
    times = times[order]
    keep = int(np.searchsorted(times, drive.duration))
    return EmissionRecord(times[:keep], codes[order[:keep]], drive.duration)


def _run_lengths(path, pool_runs, n):
    """The length in periods of each run of a pulsed walk over ``n`` periods.

    ``path`` holds each run's state in walk order and ``pool_runs[s]`` the
    run lengths of each chunk of s's pool, in pool order; the walk reads
    each state's runs in that order.  The last run is cut so the runs end
    at the record's last period: it may overshoot it, or be a pool's tail
    of self-loops, which no run array holds.
    """
    lens = np.empty(path.size, dtype=np.int64)
    for state, lengths in enumerate(pool_runs):
        mine = np.flatnonzero(path[:-1] == state)
        if mine.size:
            lens[mine] = np.concatenate(lengths)[: mine.size]
    lens[-1] = n - lens[:-1].sum()
    return lens


def _gathered(path, lens, drawn, period):
    """The photons of a pulsed walk, as (times, line codes), state by state.

    Run j of the walk is in state ``path[j]`` for ``lens[j]`` periods, which
    take the next ``lens[j]`` paths of that state's pool, whose chunks are
    ``drawn[state]``, each (photons per path, times, codes).  A chunk's
    periods are gathered from the runs it serves: along a run the period and
    the place in the pool advance together, so a place's period is its run's
    first period minus its first place, plus the place.  Only one chunk's
    periods are held at a time.
    """
    first = np.cumsum(lens) - lens  # each run's first period
    parts = []
    for state, chunks in enumerate(drawn):
        mine = np.flatnonzero(path == state)  # its runs, in walk order
        # the state's runs start at these places in its pool, and end at the next
        place = np.concatenate(([0], np.cumsum(lens[mine])))
        shift = first[mine] - place[:-1]
        p0 = 0
        for counts, times, codes in chunks:
            p1 = min(p0 + counts.size, int(place[-1]))  # the chunk's places the walk used
            if p1 <= p0:  # this chunk and any after it are the pool's unused tail
                break
            r0 = int(np.searchsorted(place, p0, side="right")) - 1
            r1 = int(np.searchsorted(place, p1, side="left"))  # runs r0..r1-1 serve it
            overlap = np.diff(np.clip(place[r0 : r1 + 1], p0, p1))
            ks = np.repeat(shift[r0:r1], overlap) + np.arange(p0, p1)
            m = int(counts[: p1 - p0].sum())
            parts.append((np.repeat(ks * period, counts[: p1 - p0]) + times[:m], codes[:m]))
            p0 += counts.size
    return tuple(np.concatenate(col) for col in zip(*parts))


def _decay_edges(drive: DriveProgram, bin_ps):
    """Decay-profile bin edges over one drive period, at most ``bin_ps`` ps apart."""
    if drive.mode != MODE_PULSED:
        raise InvalidInput("decay_profile requires a pulsed drive")
    bin_ns = number(bin_ps, "bin_ps", above=0.0) * 1e-3
    n_bins = max(np.ceil(drive.period / bin_ns), 1.0)
    if n_bins > _MAX_DECAY_BINS:
        raise InvalidInput(
            f"decay bins of {bin_ps:g} ps give {n_bins:.3g} bins per period, "
            f"more than the cap of {_MAX_DECAY_BINS:g}"
        )
    return np.linspace(0.0, drive.period, int(n_bins) + 1)


def decay_profile(
    record: EmissionRecord, drive: DriveProgram, line=LINE_X, bin_ps=_DECAY_BIN_PS
):
    """Histogram of emission times modulo the drive period.

    Returns (bin_centers_ns, counts).  Empty records give all-zero counts.
    """
    edges = _decay_edges(drive, bin_ps)
    counts, _ = np.histogram(np.mod(record.times(line), drive.period), bins=edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    return centers, counts


def fit_decay_time(centers, counts, t_start, t_stop):
    """Exponential-tail lifetime from a log-linear least-squares fit."""
    mask = (centers >= t_start) & (centers <= t_stop) & (counts > 0)
    if np.count_nonzero(mask) < _FIT_BINS:
        raise InvalidInput("not enough populated bins in the fit window")
    x = centers[mask]
    y = np.log(counts[mask].astype(float))
    slope, _ = np.polyfit(x, y, 1, w=np.sqrt(counts[mask]))
    if slope >= 0:
        raise InvalidInput("histogram tail is not decaying in the fit window")
    return -1.0 / slope


def throughput_ratio(collection_gain, rate_gain, qe_factor):
    """Photon-throughput improvement: product of the three factors, itself
    checked to be a finite number > 0."""
    for name, v in (
        ("collection_gain", collection_gain),
        ("rate_gain", rate_gain),
        ("qe_factor", qe_factor),
    ):
        number(v, name, above=0.0)
    product = collection_gain * rate_gain * qe_factor
    return number(product, "collection_gain * rate_gain * qe_factor", above=0.0)


def poisson_photon_record(rate_per_ns, duration_ns, seed) -> EmissionRecord:
    """Classical Poissonian reference source (laser-like) on the X line, for control runs."""
    number(rate_per_ns, "rate_per_ns", low=0.0)
    number(duration_ns, "duration", above=0.0)
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_per_ns * duration_ns)
    times = np.sort(rng.uniform(0.0, duration_ns, n))
    return EmissionRecord(times, np.full(times.size, LINES.index(LINE_X)), duration_ns)


def pulsed_poisson_record(
    repetition_rate_mhz, mean_photons_per_pulse, duration_ns, seed
) -> EmissionRecord:
    """Pulsed classical source on the X line: Poisson photon number per pulse, Gaussian spread."""
    number(repetition_rate_mhz, "repetition_rate", above=0.0)
    number(mean_photons_per_pulse, "mean_photons_per_pulse", low=0.0)
    number(duration_ns, "duration", above=0.0)
    rng = np.random.default_rng(seed)
    period = 1e3 / repetition_rate_mhz
    n_pulses = int(np.ceil(duration_ns / period))  # pulses at every k * period < duration
    pulse = np.repeat(np.arange(n_pulses), rng.poisson(mean_photons_per_pulse, n_pulses))
    times = pulse * period + np.abs(rng.normal(0.0, _POISSON_JITTER_NS, pulse.size))
    times = np.sort(times[times < duration_ns])
    return EmissionRecord(times, np.full(times.size, LINES.index(LINE_X)), duration_ns)
