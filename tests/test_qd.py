from dataclasses import fields

import numpy as np
import pytest

from oracles import dc_steady_state, x_waiting_time_cdf
from speds import qd
from speds.errors import InvalidInput
from speds.presets import load_preset
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
    quantum_efficiency_factor,
    simulate,
    throughput_ratio,
)


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

    def test_csv_round_trip_byte_identical(self, tmp_path):
        model = QDModel()
        drive = DriveProgram(duration=5e3)
        rec = simulate(model, drive, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rec.to_csv(p1)
        EmissionRecord.from_csv(p1, duration=rec.duration).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


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

    def test_csv_bytes_and_round_trip(self, tmp_path):
        path = tmp_path / "rec.csv"
        self.record().to_csv(path)
        assert path.read_text() == (
            "time_ns,line\n1.500000000,X\n2.250000000,marker\n3.000000000,X2\n"
        )
        assert same_record(EmissionRecord.from_csv(path), self.record(duration=3.0))

    def test_empty_csv_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        EmissionRecord([], [], 10.0).to_csv(path)
        assert path.read_text() == "time_ns,line\n"
        back = EmissionRecord.from_csv(path, duration=10.0)
        assert back.time_ns.size == 0 and back.duration == 10.0

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

    def test_closed_form_factor(self):
        assert quantum_efficiency_factor(0.47, 2.1) == pytest.approx(0.2005, abs=1e-3)
        assert quantum_efficiency_factor(0.47, 0.68) == pytest.approx(0.4992, abs=1e-3)

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
