import hashlib
from dataclasses import fields

import numpy as np
import pytest

from oracles import dc_steady_state, pulsed_photons_per_period, x_waiting_time_cdf
from speds import qd
from speds.errors import InvalidInput
from speds.presets import available_presets, load_preset
from speds.qd import (
    LINE_MARKER,
    LINE_X,
    LINE_X2,
    LINES,
    MODE_DC,
    MODE_PULSED,
    SWEEP_ELECTRONS,
    SWEEP_FULL,
    SWEEP_NONE,
    DriveProgram,
    EmissionRecord,
    QDModel,
    decay_profile,
    fit_decay_time,
    poisson_photon_record,
    pulsed_poisson_record,
    simulate,
    throughput_ratio,
)


PULSED_PRESETS = [
    name for name in available_presets()
    if load_preset(name).get("drive", {}).get("mode") == MODE_PULSED
]


def same_record(r1, r2):
    return (
        np.array_equal(r1.time_ns, r2.time_ns)
        and np.array_equal(r1.line_code, r2.line_code)
        and r1.duration == r2.duration
    )


def line_names(rec):
    return np.array(LINES)[rec.line_code]


class TestTrivial:
    def test_zero_capture_rate_no_events(self):
        model = QDModel(capture_rate=0.0)
        drive = DriveProgram(mode=MODE_DC, duration=1e4)
        assert simulate(model, drive, seed=1).time_ns.size == 0

    def test_at_most_one_x_photon_per_period_with_full_reset(self):
        model = QDModel(capture_rate=5.0, shelve_probability=0.0, sweep_rate=200.0)
        drive = DriveProgram(
            mode=MODE_PULSED,
            repetition_rate=80.0,
            pulse_width=50.0,
            sweep_out_regime=SWEEP_FULL,
            duration=2e5,
        )
        rec = simulate(model, drive, seed=2)
        periods = np.floor(rec.times(LINE_X) / drive.period).astype(int)
        _, counts = np.unique(periods, return_counts=True)
        assert counts.max() == 1

    def test_times_within_duration_and_sorted(self):
        model = QDModel()
        drive = DriveProgram(mode=MODE_DC, duration=5e3)
        t = simulate(model, drive, seed=3).times()
        assert t.size > 0
        assert np.all(np.diff(t) > 0)
        assert 0.0 < t[0] and t[-1] < drive.duration


class TestDeterminism:
    def test_identical_seed_identical_record(self):
        model = QDModel()
        drive = DriveProgram(duration=1e4)
        assert same_record(simulate(model, drive, seed=7), simulate(model, drive, seed=7))

    def test_different_seed_differs(self):
        model = QDModel()
        drive = DriveProgram(duration=1e4)
        assert not same_record(simulate(model, drive, seed=7), simulate(model, drive, seed=8))

    # sha256 of time_ns.tobytes() + line_code.tobytes() at each preset's own
    # seed: a change to the RNG stream must update these and say so in CHANGES.md
    @pytest.mark.parametrize(
        "preset,lanes,digest",
        [
            ("dc_eq1", None, "af0bf6bb088e9d14ea32832271d7fb7984788995ea30131757ff5ca942b3ca61"),
            ("ghz_ideal", None,
             "fbb60e2e3d5859955989e831708ef0b50a0f15cb3f183b7b76afc380252158b0"),
            ("fig10_shelving", None,
             "cd0e0f4e45c415aeebdaf2e06eca52a8d8615871f5e646487bc78428d6d1e334"),
            ("fig8_jitter", None,
             "94d150aa43356511056edce7563dfa399e575967a2dd2a8bc1c399f01bbca5ec"),
            ("fig8_full_reset", None,
             "c6ff2a24eba9d1fc440d83b80d6e2b567e8e2a3d6baee168416c59bf9ff5d670"),
            # small chunks: the EMPTY and X pools grow 163 and 46 times
            ("ghz_ideal", 1 << 9,
             "5572a4911320708afa0b837586b5c23754b5a6bd0bfc46376eca79bc3382036a"),
        ],
        ids=["dc_eq1", "ghz_ideal", "fig10_shelving", "fig8_jitter", "fig8_full_reset",
             "ghz_ideal-512-lanes"],
    )
    def test_preset_records_keep_their_bytes(self, monkeypatch, preset, lanes, digest):
        if lanes is not None:
            monkeypatch.setattr(qd, "_LANES", lanes)
        config = load_preset(preset)
        rec = simulate(QDModel(**config["model"]), DriveProgram(**config["drive"]), config["seed"])
        data = rec.time_ns.tobytes() + rec.line_code.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestColumnarRecord:
    @staticmethod
    def record(duration=4.0):
        codes = [LINES.index(LINE_X), LINES.index(LINE_MARKER), LINES.index(LINE_X2)]
        return EmissionRecord([1.5, 2.25, 3.0], codes, duration)

    def test_events_rows_read_the_arrays(self):
        rec = self.record()
        assert len(rec.events) == 3
        assert rec.events.tolist() == list(zip([1.5, 2.25, 3.0], rec.line_code.tolist()))
        assert rec.events.line_code[1] == LINES.index(LINE_MARKER)

    def test_times_masks_by_line(self):
        rec = self.record()
        assert rec.times(LINE_X2).tolist() == [3.0]
        assert rec.times().tolist() == [1.5, 2.25, 3.0]
        with pytest.raises(InvalidInput):
            rec.times("Y")

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(InvalidInput):
            EmissionRecord([1.0, 2.0], [0], 3.0)


class TestCascade:
    def test_x2_followed_by_x_when_no_refilling(self):
        # After the injection pulse ends no recapture can re-promote the dot,
        # so an X2 photon emitted outside the pulse must be followed by its
        # cascade X photon before anything else.  (Under DC drive refilling
        # from X back to X2 legitimately breaks this ordering.)
        model = QDModel(capture_rate=20.0, shelve_probability=0.0)
        drive = DriveProgram(
            mode=MODE_PULSED, repetition_rate=80.0, pulse_width=300.0, duration=2e5
        )
        rec = simulate(model, drive, seed=4)
        width = drive.pulse_width * 1e-3
        t, lines = rec.time_ns, line_names(rec)
        same_period = (t[1:] // drive.period) == (t[:-1] // drive.period)
        checked = (lines[:-1] == LINE_X2) & (np.mod(t[:-1], drive.period) > width) & same_period
        assert np.all(lines[1:][checked] == LINE_X)
        assert checked.sum() > 100

    def test_x2_needs_high_injection(self):
        weak = simulate(QDModel(capture_rate=0.02), DriveProgram(mode=MODE_DC, duration=5e4), 5)
        strong = simulate(QDModel(capture_rate=5.0), DriveProgram(mode=MODE_DC, duration=5e4), 5)
        frac = lambda r: len(r.times(LINE_X2)) / max(len(r.times(LINE_X)), 1)
        assert frac(weak) < 0.08
        assert frac(strong) > 0.5


PHASE_TYPE = dict(tau_x=2.1, tau_x2=0.68, capture_rate=0.8, shelve_probability=0.3,
                  unshelve_rate=0.2)


def assert_phase_type_waits(rec, tau_x, tau_x2, capture_rate, shelve_probability, unshelve_rate):
    waits = np.diff(rec.times(LINE_X))
    assert waits.size > 1e5
    edges = np.array([0.0, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0, 15.0, 25.0, np.inf])
    cdf = x_waiting_time_cdf(edges[1:-1], tau_x, tau_x2, capture_rate, shelve_probability,
                             unshelve_rate)
    probs = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    observed, _ = np.histogram(waits, bins=edges)
    expected = probs * waits.size
    z = (observed - expected) / np.sqrt(expected * (1.0 - probs))
    assert np.all(np.abs(z) < 3.0), z


class TestMasterEquationOracle:
    def test_dc_waiting_time_distribution(self):
        rec = simulate(QDModel(**PHASE_TYPE), DriveProgram(mode=MODE_DC, duration=1.2e6), seed=11)
        assert_phase_type_waits(rec, **PHASE_TYPE)


class TestRenewalSampler:
    @staticmethod
    def line_rates(model, duration, seed, n_sub=40):
        """Per line: measured photons per ns and its SE from equal sub-interval counts."""
        rec = simulate(model, DriveProgram(mode=MODE_DC, duration=duration), seed)
        edges = np.linspace(0.0, duration, n_sub + 1)
        width = duration / n_sub
        out = {}
        for line in LINES:
            counts, _ = np.histogram(rec.times(line), bins=edges)
            out[line] = (counts.mean() / width, counts.std(ddof=1) / np.sqrt(n_sub) / width)
        return out

    @pytest.mark.parametrize("cycles", [None, 64], ids=["default-batch", "64-cycle-batch"])
    @pytest.mark.parametrize(
        "preset,seed",
        [("dc_eq1", 51), ("cascade_x2_x", 52), ("exclusion_x_marker", 53)],
    )
    def test_line_rates_match_steady_state(self, monkeypatch, preset, seed, cycles):
        # the counts of a renewal process are not Poisson, so the SE comes
        # from the spread of the sub-interval counts
        if cycles is not None:
            monkeypatch.setattr(qd, "_CYCLES", cycles)
        model = QDModel(**load_preset(preset)["model"])
        pi = dc_steady_state(model.tau_x, model.tau_x2, model.capture_rate,
                             model.shelve_probability, model.unshelve_rate)
        expected = {LINE_X: pi[1] / model.tau_x, LINE_X2: pi[2] / model.tau_x2,
                    LINE_MARKER: pi[3] * model.marker_rate}
        for line, (rate, se) in self.line_rates(model, 1e6, seed).items():
            if expected[line] == 0.0:
                assert rate == 0.0
            else:
                assert abs(rate - expected[line]) < 4.0 * se, (line, rate, expected[line], se)

    @pytest.mark.parametrize("marker_rate", [0.0, 0.5])
    def test_permanent_shelving_ends(self, marker_rate):
        # the first X decay shelves the dot for good; afterwards only the
        # shelved state's markers (a Poisson process at marker_rate) remain
        model = QDModel(shelve_probability=1.0, unshelve_rate=0.0, marker_rate=marker_rate)
        duration = 1e5
        rec = simulate(model, DriveProgram(mode=MODE_DC, duration=duration), seed=54)
        (t_x,) = rec.times(LINE_X)
        markers = rec.times(LINE_MARKER)
        assert np.all(markers > t_x) and np.all(np.diff(rec.time_ns) > 0)
        mean = marker_rate * (duration - t_x)
        assert abs(markers.size - mean) <= 4.0 * np.sqrt(mean)
        assert rec.time_ns[-1] < duration

    def test_several_batches_follow_the_phase_type_law(self, monkeypatch):
        monkeypatch.setattr(qd, "_CYCLES", 1000)
        duration = 1.2e6
        rec = simulate(QDModel(**PHASE_TYPE), DriveProgram(mode=MODE_DC, duration=duration),
                       seed=11)
        assert rec.times(LINE_X).size > 100 * 1000  # over a hundred batches
        assert_phase_type_waits(rec, **PHASE_TYPE)
        gaps = np.diff(np.concatenate(([0.0], rec.time_ns, [duration])))
        assert np.all(gaps > 0.0)
        # no batch edge leaves a hole: the longest wait is an ordinary one
        # (an Exp(0.2) shelved dwell beyond 150 ns has probability 1e-13)
        assert gaps.max() < 150.0


class TestPulsedSampler:
    @staticmethod
    def assert_matches_the_periodic_steady_state(model, drive, seed):
        # the counts of successive periods are correlated through the
        # shelved state, so the SE comes from the spread of sub-interval counts
        rec = simulate(model, drive, seed)
        expected = pulsed_photons_per_period(
            model.tau_x, model.tau_x2, model.capture_rate, model.shelve_probability,
            model.unshelve_rate, model.marker_rate, model.sweep_rate, drive.period,
            drive.pulse_width * 1e-3, drive.sweep_out_regime, drive.sweep_delay,
        )
        n_sub = 40
        periods = drive.duration / drive.period / n_sub  # whole periods per sub-interval
        edges = np.linspace(0.0, drive.duration, n_sub + 1)
        for line, mean in zip(LINES, expected):
            counts, _ = np.histogram(rec.times(line), bins=edges)
            rate = counts.mean() / periods
            se = counts.std(ddof=1) / np.sqrt(n_sub) / periods
            if drive.sweep_out_regime == SWEEP_FULL and line == LINE_MARKER:  # never shelves
                assert mean == pytest.approx(0.0, abs=1e-12) and counts.sum() == 0
            else:
                assert abs(rate - mean) < 4.0 * se, (line, rate, mean, se)

    @pytest.mark.parametrize(
        "regime,delay,seed",
        [(SWEEP_NONE, 0.0, 61), (SWEEP_ELECTRONS, 0.0, 62), (SWEEP_ELECTRONS, 0.45, 63),
         (SWEEP_FULL, 0.7, 64)],
    )
    def test_photons_per_period_match_the_periodic_steady_state(self, regime, delay, seed):
        model = QDModel(shelve_probability=0.2, unshelve_rate=0.3, marker_rate=0.5)
        drive = DriveProgram(mode=MODE_PULSED, repetition_rate=80.0, pulse_width=300.0,
                             sweep_out_regime=regime, sweep_delay=delay, duration=1e6)
        self.assert_matches_the_periodic_steady_state(model, drive, seed)

    def test_fig10_shelving_matches_the_periodic_steady_state(self):
        # long shelved runs at 500 MHz: most of the walk is runs of SHELVED
        config = load_preset("fig10_shelving")
        model = QDModel(**{**config["model"], "marker_rate": 0.5})
        self.assert_matches_the_periodic_steady_state(model, DriveProgram(**config["drive"]), 65)

    def test_times_rise_strictly_within_a_duration_of_no_whole_periods(self):
        drive = DriveProgram(mode=MODE_PULSED, repetition_rate=80.0, pulse_width=300.0,
                             duration=12.5 * 4000 + 7.3)
        t = simulate(QDModel(capture_rate=5.0, marker_rate=0.5), drive, seed=66).time_ns
        assert t.size > 4000
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 0.0 and t[-1] < drive.duration

    def test_zero_capture_rate_gives_an_empty_record(self):
        drive = DriveProgram(mode=MODE_PULSED, repetition_rate=80.0, duration=1e5)
        rec = simulate(QDModel(capture_rate=0.0, marker_rate=0.5), drive, seed=67)
        assert rec.time_ns.size == 0 and rec.line_code.size == 0

    def test_permanent_shelving_leaves_one_x_photon(self, monkeypatch):
        # the first X decay shelves the dot for good: after it the walk stays
        # in the SHELVED pool's self-loops, which must grow chunk by chunk
        monkeypatch.setattr(qd, "_LANES", 1 << 12)
        model = QDModel(shelve_probability=1.0, unshelve_rate=0.0)
        drive = DriveProgram(mode=MODE_PULSED, repetition_rate=500.0, duration=1e5)
        rec = simulate(model, drive, seed=68)
        assert rec.times(LINE_X).size == 1
        assert rec.time_ns[-1] == rec.times(LINE_X)[0]

    @pytest.mark.parametrize("preset", PULSED_PRESETS)
    def test_a_lane_keeps_to_its_own_branches_at_either_end_of_its_draw(self, preset):
        # 1 - 2^-53 is the largest draw rng.random gives: s + it rounds up to s + 1
        config = load_preset(preset)
        segments = qd._rate_table(QDModel(**config["model"]), DriveProgram(**config["drive"]))
        for _, _, dwell, bounds, _, _ in segments:
            state = np.arange(dwell.size, dtype=np.int8)
            # branch b holds the draws with s + u in [edges[b], edges[b + 1])
            owner = np.floor(np.append(0.0, bounds)).astype(np.int8)
            pick = qd._branch_lookup(bounds, dwell.size)
            for u in (0.0, 1.0 - 2.0 ** -53):
                assert np.array_equal(owner[pick(state, np.full(state.size, u))], state), u

    @pytest.mark.parametrize("preset", [*PULSED_PRESETS, None])
    def test_the_pick_is_the_clamped_search(self, preset):
        # None: a three-segment table, the sweep-out starting after a delay
        if preset is None:
            model = QDModel(marker_rate=0.3)
            drive = DriveProgram(mode=MODE_PULSED, sweep_out_regime=SWEEP_ELECTRONS,
                                 sweep_delay=0.45)
        else:
            config = load_preset(preset)
            model, drive = QDModel(**config["model"]), DriveProgram(**config["drive"])
        segments = qd._rate_table(model, drive)
        assert preset is not None or len(segments) == 3
        rng = np.random.default_rng(73)
        for _, _, dwell, bounds, _, _ in segments:
            last = np.searchsorted(bounds, np.arange(1.0, dwell.size + 1.0))
            pick = qd._branch_lookup(bounds, dwell.size)
            for s in range(dwell.size):
                own = bounds[(bounds > s) & (bounds < s + 1)] - s
                u = np.concatenate(([0.0, 1.0 - 2.0 ** -53], own, np.nextafter(own, 0.0),
                                    np.nextafter(own, 1.0), rng.random(10**5)))
                state = np.full(u.size, s)
                expected = np.minimum(np.searchsorted(bounds, state + u, "right"), last[state])
                assert np.array_equal(pick(state, u), expected), (s, dwell.size)

    @pytest.mark.parametrize("lanes", [1 << 16, (1 << 16) + 3])
    def test_lanes_group_as_by_a_full_width_key(self, monkeypatch, lanes):
        config = load_preset("ghz_ideal")
        segments = qd._rate_table(QDModel(**config["model"]), DriveProgram(**config["drive"]))
        paths = qd._period_paths(segments, qd._EMPTY, lanes, np.random.default_rng(74))
        monkeypatch.setattr(qd, "_lane_key", lambda lanes: np.int64)
        wide = qd._period_paths(segments, qd._EMPTY, lanes, np.random.default_rng(74))
        assert wide[1][lanes - 3:].sum() > 0  # the last lanes emit
        for got, want in zip(paths, wide):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("preset", ["ghz_ideal", "fig10_shelving"])
    def test_the_walk_stops_at_the_last_period(self, monkeypatch, preset):
        # at their own seeds the last run of these presets reaches past the
        # record; the walk cuts it there, so no period past the record is gathered
        walked, run_lengths = [], qd._run_lengths

        def keep(path, pool_runs, n):
            lens = run_lengths(path, pool_runs, n)
            walked.append((path, pool_runs, n, lens))
            return lens

        monkeypatch.setattr(qd, "_run_lengths", keep)
        config = load_preset(preset)
        drive = DriveProgram(**config["drive"])
        simulate(QDModel(**config["model"]), drive, config["seed"])
        [(path, pool_runs, n, lens)] = walked
        assert n == int(np.ceil(drive.duration / drive.period))
        assert lens.sum() == n and lens.min() >= 1
        # the last run, as its state's pool drew it, is longer than the cut one
        last = path[-1]
        uncut = np.concatenate(pool_runs[last])[np.count_nonzero(path == last) - 1]
        assert lens[-1] < uncut

    def test_each_period_takes_the_next_unused_path_of_its_start_state(self, monkeypatch):
        # the pool rule, exactly, as a plain loop over the periods and the
        # paths the walk drew; small chunks give every state a pool of several
        monkeypatch.setattr(qd, "_LANES", 1 << 9)
        drawn, period_paths = {}, qd._period_paths

        def keep(segments, start, lanes, rng):
            chunk = period_paths(segments, start, lanes, rng)
            drawn.setdefault(start, []).append(chunk)
            return chunk

        monkeypatch.setattr(qd, "_period_paths", keep)
        model = QDModel(capture_rate=5.0, shelve_probability=0.5, unshelve_rate=0.5,
                        marker_rate=0.3)
        drive = DriveProgram(mode=MODE_PULSED, repetition_rate=500.0, pulse_width=300.0,
                             duration=2e4 + 0.7)
        rec = simulate(model, drive, seed=71)
        assert sorted(drawn) == [qd._EMPTY, qd._X, qd._X2, qd._SHELVED]  # a pool each
        pools = {}
        for state, chunks in drawn.items():
            ends, counts, times, codes = (np.concatenate(col) for col in zip(*chunks))
            pools[state] = ends, np.append(0, np.cumsum(counts, dtype=np.int64)), times, codes
        used, times, codes, state = dict.fromkeys(pools, 0), [], [], qd._EMPTY
        for k in range(int(np.ceil(drive.duration / drive.period))):
            ends, first, path_times, path_codes = pools[state]
            i = used[state]
            used[state] += 1
            times += (k * drive.period + path_times[first[i]:first[i + 1]]).tolist()
            codes += path_codes[first[i]:first[i + 1]].tolist()
            state = int(ends[i])
        times, codes = np.array(times), np.array(codes, dtype=np.int8)
        within = times < drive.duration
        assert np.array_equal(rec.time_ns, times[within])
        assert np.array_equal(rec.line_code, codes[within])


class TestDecayProfile:
    def fig8_model(self, tau_x=2.1):
        return QDModel(
            tau_x=tau_x,
            tau_x2=0.68,
            capture_rate=5.0,
            shelve_probability=0.0,
            sweep_rate=1000.0,
        )

    def fig8_drive(self, regime=SWEEP_NONE, duration=1e6):
        return DriveProgram(
            mode=MODE_PULSED,
            repetition_rate=80.0,
            pulse_width=20.0,
            sweep_out_regime=regime,
            sweep_delay=0.45 if regime != SWEEP_NONE else 0.0,
            duration=duration,
        )

    def test_tail_fit_recovers_lifetime(self):
        rec = simulate(self.fig8_model(), self.fig8_drive(duration=2e6), seed=21)
        centers, counts = decay_profile(rec, self.fig8_drive(duration=2e6), line=LINE_X)
        tau = fit_decay_time(centers, counts, 1.5, 9.0)
        assert tau == pytest.approx(2.1, rel=0.05)

    def test_sweep_out_truncates_tail(self):
        drive = self.fig8_drive(SWEEP_FULL, duration=5e5)
        rec = simulate(self.fig8_model(), drive, seed=22)
        centers, counts = decay_profile(rec, drive, line=LINE_X)
        onset = drive.pulse_width * 1e-3 + drive.sweep_delay
        after = counts[centers > onset + 0.3].sum()
        before = counts[centers <= onset].sum()
        assert after < 0.01 * before

    def test_electrons_only_sweep_out_truncates_tail(self):
        # sweep-out empties X and X2 in both regimes; with shelving on, the
        # shelved dots it leaves alone emit nothing, so the tail still ends
        drive = self.fig8_drive(SWEEP_ELECTRONS, duration=5e5)
        model = QDModel(tau_x=2.1, tau_x2=0.68, capture_rate=5.0, shelve_probability=0.8,
                        sweep_rate=1000.0)
        rec = simulate(model, drive, seed=26)
        centers, counts = decay_profile(rec, drive, line=LINE_X)
        onset = drive.pulse_width * 1e-3 + drive.sweep_delay
        after = counts[centers > onset + 0.3].sum()
        before = counts[centers <= onset].sum()
        assert before > 300
        assert after < 0.01 * before

    @pytest.mark.parametrize("tau,expected,tol", [(2.1, 0.2005, 0.02), (0.68, 0.4992, 0.05)])
    def test_quantum_efficiency_truncation(self, tau, expected, tol):
        # Emission window 0.47 ns: pulse (20 ps) + sweep-out delay (0.45 ns).
        # Low capture rate keeps cascade-delayed X photons (a few percent,
        # which drag the short-lifetime ratio slightly below the closed form)
        # from dominating the comparison.
        model = QDModel(
            tau_x=tau, tau_x2=0.68, capture_rate=2.5, shelve_probability=0.0,
            sweep_rate=1000.0,
        )
        free = simulate(model, self.fig8_drive(duration=3e6), seed=23)
        cut = simulate(model, self.fig8_drive(SWEEP_FULL, 3e6), seed=24)
        ratio = len(cut.times(LINE_X)) / len(free.times(LINE_X))
        assert ratio == pytest.approx(expected, abs=tol)

    def test_requires_pulsed_drive(self):
        rec = simulate(QDModel(), DriveProgram(mode=MODE_DC, duration=1e3), seed=25)
        with pytest.raises(InvalidInput):
            decay_profile(rec, DriveProgram(mode=MODE_DC, duration=1e3))


class TestShelvingMemory:
    @staticmethod
    def per_period_emission(rec, drive):
        n_periods = int(rec.duration / drive.period)
        emitted = np.zeros(n_periods, dtype=bool)
        idx = np.floor(rec.times(LINE_X) / drive.period).astype(int)
        emitted[idx[idx < n_periods]] = True
        return emitted

    def drive(self, regime, duration=1e6):
        return DriveProgram(
            mode=MODE_PULSED,
            repetition_rate=500.0,
            pulse_width=300.0,
            sweep_out_regime=regime,
            sweep_delay=0.7 if regime != SWEEP_NONE else 0.0,
            duration=duration,
        )

    def test_emission_suppressed_after_emission(self):
        model = QDModel(capture_rate=1.2, shelve_probability=0.8, unshelve_rate=0.1)
        drive = self.drive(SWEEP_NONE)
        emitted = self.per_period_emission(simulate(model, drive, seed=31), drive)
        p_uncond = emitted.mean()
        after = emitted[1:][emitted[:-1]]
        p_cond = after.mean()
        sigma = np.sqrt(p_cond * (1 - p_cond) / after.size)
        assert p_cond < p_uncond - 3 * sigma

    def test_full_reset_erases_memory(self):
        model = QDModel(capture_rate=1.2, shelve_probability=0.8, unshelve_rate=0.1)
        drive = self.drive(SWEEP_FULL, duration=2e6)
        emitted = self.per_period_emission(simulate(model, drive, seed=32), drive)
        p_uncond = emitted.mean()
        after = emitted[1:][emitted[:-1]]
        p_cond = after.mean()
        sigma = np.sqrt(p_cond * (1 - p_cond) / after.size)
        assert abs(p_cond - p_uncond) < 3 * sigma

    def test_electrons_only_keeps_memory(self):
        # unlike full_reset, sweeping out electrons leaves the shelved state,
        # so an emission still suppresses the next pulse's
        model = QDModel(capture_rate=1.2, shelve_probability=0.8, unshelve_rate=0.1)
        drive = self.drive(SWEEP_ELECTRONS)
        emitted = self.per_period_emission(simulate(model, drive, seed=34), drive)
        p_uncond = emitted.mean()
        after = emitted[1:][emitted[:-1]]
        p_cond = after.mean()
        sigma = np.sqrt(p_cond * (1 - p_cond) / after.size)
        assert p_cond < p_uncond - 3 * sigma

    def test_marker_line_only_when_shelved(self):
        model = QDModel(capture_rate=1.0, shelve_probability=0.5, unshelve_rate=0.1,
                        marker_rate=0.5)
        rec = simulate(model, DriveProgram(mode=MODE_DC, duration=5e4), seed=33)
        markers = rec.times(LINE_MARKER)
        assert markers.size > 0
        # markers never interleave an X2->X cascade (the dot is not shelved mid-cascade)
        lines = line_names(rec)
        assert not np.any((lines[:-1] == LINE_X2) & (lines[1:] == LINE_MARKER))


class TestThroughput:
    def test_paper_factor_product(self):
        assert throughput_ratio(10.0, 13.4, 0.5) == pytest.approx(67.0)

    def test_identity(self):
        assert throughput_ratio(1.0, 1.0, 1.0) == 1.0

    def test_rate_ratio_from_frequencies(self):
        assert throughput_ratio(10.0, 1070.0 / 80.0, 0.5) == pytest.approx(66.875)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            throughput_ratio(0.0, 1.0, 1.0)


class TestPoissonSources:
    def test_dc_poisson_count(self):
        rec = poisson_photon_record(0.05, 1e5, seed=41)
        n = rec.time_ns.size
        assert abs(n - 5000) < 4 * np.sqrt(5000)

    def test_pulsed_poisson_count_and_order(self):
        rec = pulsed_poisson_record(80.0, 0.3, 1e5, seed=43)
        expected = 0.3 * 8000  # pulses in 1e5 ns at 12.5 ns
        assert abs(rec.time_ns.size - expected) < 4 * np.sqrt(expected)
        assert np.all(np.diff(rec.time_ns) >= 0)
        assert rec.time_ns[0] >= 0.0 and rec.time_ns[-1] < rec.duration

    def test_pulsed_poisson_keeps_the_pulse_of_a_partial_last_period(self):
        # 130 ns at 80 MHz: pulses at 0, 12.5, ..., 125 ns, the last one 5 ns before the end
        rec = pulsed_poisson_record(80.0, 50.0, 130.0, seed=44)
        last = rec.time_ns[rec.time_ns >= 125.0]
        assert last.size > 0 and last.max() < 130.0
        assert np.unique(np.floor(rec.time_ns / 12.5)).size == 11

    def test_pulsed_poisson_structure(self):
        rec = pulsed_poisson_record(80.0, 0.3, 1e5, seed=42)
        phases = np.mod(rec.times(), 12.5)
        assert np.quantile(phases, 0.95) < 1.0  # photons cluster at the pulses


class TestValidation:
    def test_duration_shorter_than_period_rejected(self):
        with pytest.raises(InvalidInput):
            DriveProgram(mode=MODE_PULSED, repetition_rate=80.0, pulse_width=300.0, duration=5.0)

    def test_pulse_wider_than_period_rejected(self):
        with pytest.raises(InvalidInput):
            DriveProgram(mode=MODE_PULSED, repetition_rate=500.0, pulse_width=3000.0)

    def test_bad_regime_rejected(self):
        with pytest.raises(InvalidInput):
            DriveProgram(sweep_out_regime="off")

    def test_bad_shelve_probability_rejected(self):
        with pytest.raises(InvalidInput):
            QDModel(shelve_probability=1.5)

    def test_negative_lifetime_rejected(self):
        with pytest.raises(InvalidInput):
            QDModel(tau_x=-1.0)

    def test_sweep_delay_must_fit_in_period(self):
        with pytest.raises(InvalidInput):
            DriveProgram(
                mode=MODE_PULSED,
                repetition_rate=500.0,
                pulse_width=300.0,
                sweep_out_regime=SWEEP_FULL,
                sweep_delay=5.0,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(QDModel)])
    def test_model_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidInput, match="finite"):
            QDModel(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(DriveProgram) if f.type is float]
    )
    def test_drive_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidInput, match="finite"):
            DriveProgram(mode=MODE_DC, **{name: value})
