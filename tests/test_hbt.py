import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import dc_g2, shelving_peak_areas, unrefilled_zero_area
from speds import hbt as hbt_module
from speds.errors import InvalidInput
from speds.hbt import (
    CorrelationHistogram,
    DetectorPair,
    PeakAreas,
    correlate,
    cross_correlate_lines,
    detect,
    g2_zero_closed_form,
    peak_area_analysis,
)
from speds.qd import (
    LINE_MARKER,
    LINE_X,
    LINE_X2,
    DriveProgram,
    EmissionRecord,
    QDModel,
    poisson_photon_record,
    simulate,
)


def per_start_counts(a, b, window, bin_width):
    """Coincidence counts from one histogram per start, the original loop."""
    edges = np.linspace(-window, window, int(np.round(2 * window / bin_width)) + 1)
    counts = np.zeros(edges.size - 1)
    lo = np.searchsorted(b, a - window, side="left")
    hi = np.searchsorted(b, a + window, side="right")
    for ta, l, h in zip(a, lo, hi):
        counts += np.histogram(b[l:h] - ta, bins=edges)[0]
    return counts


def brute_force_counts(a, b, window, bin_width):
    """Every (start, stop) pair, binned by hand; exact for times on a binary grid."""
    n_bins = int(round(2 * window / bin_width))
    counts = np.zeros(n_bins)
    for ta in a:
        for tb in b:
            d = tb - ta
            if -window <= d <= window:  # the last bin includes +window
                counts[min(int((d + window) // bin_width), n_bins - 1)] += 1
    return counts


def greedy_dead_time(clicks, dead_time):
    kept = []
    for t in clicks:
        if not kept or t - kept[-1] >= dead_time:
            kept.append(t)
    return np.array(kept)


class TestDetect:
    def test_ideal_chain_partitions_photons(self):
        rec = poisson_photon_record(0.02, 1e4, seed=1)
        a, b = detect(rec, DetectorPair(), seed=2)
        merged = np.sort(np.concatenate([a, b]))
        assert np.allclose(merged, rec.times())

    def test_dark_counts_are_poissonian(self):
        # chi-square against the Poisson law over many independent realizations
        empty = EmissionRecord([], [], duration=1e4)
        det = DetectorPair(dark_rate=2e6)  # 0.002/ns total -> mean 10 per arm
        counts = []
        for s in range(400):
            a, b = detect(empty, det, seed=1000 + s)
            counts.extend([len(a), len(b)])
        counts = np.array(counts)
        mean = 10.0
        edges = np.arange(4, 18)
        observed, _ = np.histogram(counts, bins=edges)
        probs = stats.poisson.pmf(edges[:-1], mean)
        # lump everything outside the window into the tails
        probs[0] = stats.poisson.cdf(edges[0], mean)
        probs[-1] = stats.poisson.sf(edges[-2] - 1, mean)
        observed[0] += np.sum(counts < edges[0])
        observed[-1] += np.sum(counts >= edges[-1])
        expected = probs * (observed.sum() / probs.sum())
        chi2, p = stats.chisquare(observed, expected)
        assert p > 0.01

    def test_splitter_is_binomial(self):
        rec = poisson_photon_record(0.05, 2e5, seed=3)
        a, b = detect(rec, DetectorPair(), seed=4)
        n = len(a) + len(b)
        assert abs(len(a) - n / 2) < 3 * np.sqrt(n * 0.25)

    def test_efficiency_thins_stream(self):
        rec = poisson_photon_record(0.05, 2e5, seed=5)
        a, b = detect(rec, DetectorPair(efficiency=0.25), seed=6)
        n = len(a) + len(b)
        expected = 0.25 * rec.time_ns.size
        assert abs(n - expected) < 4 * np.sqrt(expected)

    def test_jitter_smears_times(self):
        rec = EmissionRecord(100.0 * np.arange(1, 2000), np.zeros(1999), 2.1e5)
        a, b = detect(rec, DetectorPair(timing_jitter_sigma=350.0), seed=7)
        residuals = np.concatenate([a, b]) % 100.0
        spread = np.minimum(residuals, 100.0 - residuals)
        assert 0.2 < np.std(spread) < 0.5  # about the 0.35 ns sigma

    def test_dead_time_enforced(self):
        rec = poisson_photon_record(0.5, 1e4, seed=8)
        a, b = detect(rec, DetectorPair(dead_time=5.0), seed=9)
        for arm in (a, b):
            assert np.all(np.diff(arm) >= 5.0)

    def test_dead_time_with_noise_and_jitter(self):
        # dead time draws no random numbers, so the same seed without it gives
        # the clicks it acts on
        rec = poisson_photon_record(0.5, 2e4, seed=30)
        live = DetectorPair(dark_rate=2e8, timing_jitter_sigma=200.0)
        dead = DetectorPair(dark_rate=2e8, timing_jitter_sigma=200.0, dead_time=3.0)
        for raw, kept in zip(detect(rec, live, seed=31), detect(rec, dead, seed=31)):
            assert np.all(np.diff(kept) >= 3.0)
            assert np.array_equal(kept, greedy_dead_time(raw, 3.0))
            assert kept.size < raw.size

    def test_line_filters_per_arm(self):
        rec = simulate(QDModel(capture_rate=2.0), DriveProgram(mode="DC", duration=2e4), seed=32)
        a, b = detect(rec, DetectorPair(), seed=33, line_filter_a=LINE_X, line_filter_b=LINE_X2)
        assert a.size > 100 and b.size > 100
        assert np.all(np.isin(a, rec.times(LINE_X)))
        assert np.all(np.isin(b, rec.times(LINE_X2)))
        n_x = rec.times(LINE_X).size  # half reach arm A
        assert abs(a.size - n_x / 2) < 4 * np.sqrt(n_x / 4)

    @pytest.mark.parametrize("filters", [(None, None), (LINE_X, LINE_X2), (LINE_MARKER, LINE_X)])
    def test_blocks_of_seven_lay_out_the_same_clicks(self, monkeypatch, filters):
        # each arm's photons are laid out block by block, then its dark counts;
        # jitter pushes some photons out of [0, duration)
        model = QDModel(capture_rate=2.0, shelve_probability=0.3, marker_rate=0.5)
        rec = simulate(model, DriveProgram(mode="DC", duration=2e3), seed=34)
        det = DetectorPair(efficiency=0.6, dark_rate=2e7, timing_jitter_sigma=300.0)
        whole = detect(rec, det, 35, *filters)
        monkeypatch.setattr(hbt_module, "_DRAW_BLOCK", 7)
        blocked = detect(rec, det, 35, *filters)
        for got, want in zip(blocked, whole):
            assert want.size > 7 * 7
            assert np.array_equal(got, want)


class TestCorrelate:
    def test_poisson_streams_are_flat(self):
        a = np.sort(np.random.default_rng(10).uniform(0, 1e6, 60000))
        b = np.sort(np.random.default_rng(11).uniform(0, 1e6, 60000))
        h = correlate(a, b, window=50.0, bin_width=1.0, duration=1e6)
        g2 = h.g2()
        expected = h.n_a * h.n_b * h.bin_width / h.duration
        chi2, p = stats.chisquare(h.counts, np.full_like(g2, expected) * h.counts.sum()
                                  / (expected * len(g2)))
        assert p > 0.01
        assert g2.mean() == pytest.approx(1.0, abs=0.01)

    def test_ideal_pulsed_source_has_empty_central_peak(self):
        # pulse much shorter than tau_X so a decay-and-recapture within one pulse
        # (the refilling pathway for multi-photon emission) is negligible
        model = QDModel(tau_x=2.1, tau_x2=0.68, capture_rate=20.0, shelve_probability=0.0,
                        sweep_rate=200.0)
        drive = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=20.0,
                             sweep_out_regime="full_reset", sweep_delay=3.0, duration=5e5)
        rec = simulate(model, drive, seed=12)
        a, b = detect(rec, DetectorPair(), seed=13, line_filter_a=LINE_X, line_filter_b=LINE_X)
        h = correlate(a, b, window=160.0, bin_width=1.0, duration=rec.duration)
        areas = peak_area_analysis(h, 80.0, m_far=10)
        assert areas.area(0) < 0.02
        assert areas.area(1) == pytest.approx(1.0, abs=0.1)

    def test_dc_two_level_recovery_matches_master_equation(self):
        tau_x, tau_x2, c, sp, u = 2.1, 0.68, 0.8, 0.3, 0.2
        model = QDModel(tau_x=tau_x, tau_x2=tau_x2, capture_rate=c,
                        shelve_probability=sp, unshelve_rate=u)
        rec = simulate(model, DriveProgram(mode="DC", duration=1.2e6), seed=11)
        a, b = detect(rec, DetectorPair(), seed=12, line_filter_a=LINE_X, line_filter_b=LINE_X)
        h = correlate(a, b, window=25.0, bin_width=0.5, duration=rec.duration)
        g2 = h.g2()
        expected_counts = h.n_a * h.n_b * h.bin_width / h.duration
        for tau in (0.75, 2.25, 4.75, 9.75, 19.75):
            i = np.argmin(np.abs(h.tau_centers - tau))
            grid = np.linspace(tau - 0.25, tau + 0.25, 5)
            oracle = dc_g2(grid, tau_x, tau_x2, c, sp, u).mean()
            se = np.sqrt(max(h.counts[i], 1.0)) / expected_counts
            assert abs(g2[i] - oracle) < 3.0 * se

    def test_matches_brute_force_on_window_and_bin_edges(self):
        # times on a 0.25 ns grid: every delay is a bin edge, some are +-window
        rng = np.random.default_rng(34)
        a = np.sort(rng.integers(0, 400, 60) * 0.25)
        edge_pairs = np.concatenate([a[:5] + 16.0, a[5:10] - 16.0])
        b = np.sort(np.concatenate([rng.integers(0, 400, 60) * 0.25, edge_pairs]))
        h = correlate(a, b, window=16.0, bin_width=0.25, duration=100.0)
        reference = brute_force_counts(a, b, 16.0, 0.25)
        assert reference[0] >= 5 and reference[-1] >= 5
        assert np.array_equal(h.counts, reference)

    def test_matches_per_start_loop_bit_for_bit(self):
        rng = np.random.default_rng(35)
        a = rng.uniform(0, 1e3, 3000)  # starts need not be sorted
        b = np.sort(rng.uniform(0, 1e3, 3000))
        h = correlate(a, b, window=7.3, bin_width=0.11, duration=1e3)
        assert np.array_equal(h.counts, per_start_counts(a, b, 7.3, 0.11))

    def test_chunk_size_does_not_change_counts(self, monkeypatch):
        rng = np.random.default_rng(36)
        a = np.sort(rng.uniform(0, 1e3, 2000))
        b = np.sort(rng.uniform(0, 1e3, 2000))
        whole = correlate(a, b, window=10.0, bin_width=0.1, duration=1e3).counts
        monkeypatch.setattr(hbt_module, "_PAIR_CHUNK", 3)
        chunked = correlate(a, b, window=10.0, bin_width=0.1, duration=1e3).counts
        assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_small_chunks_match_per_start_loop(self, monkeypatch, chunk):
        rng = np.random.default_rng(38)
        # unsorted starts; the one at 50 ns has a dense burst of stops, more
        # pairs than any of the chunks
        b = np.sort(np.concatenate([rng.uniform(0, 100.0, 300), np.linspace(49.0, 51.0, 20)]))
        a = np.concatenate([rng.uniform(0, 100.0, 40), [50.0], rng.uniform(0, 100.0, 40)])
        monkeypatch.setattr(hbt_module, "_PAIR_CHUNK", chunk)
        h = correlate(a, b, window=2.0, bin_width=0.04, duration=100.0)
        assert np.array_equal(h.counts, per_start_counts(a, b, 2.0, 0.04))
        assert h.counts.sum() > 20

    @pytest.mark.parametrize("ratio", [0, 4, 10**9], ids=["search", "default", "merge"])
    @pytest.mark.parametrize("arms", ["grid", "unsorted", "sparse_starts", "no_starts",
                                      "no_stops", "one_start", "one_stop"])
    def test_ranks_and_counts_match_searchsorted_exactly(self, monkeypatch, ratio, arms):
        # clicks on a 0.25 ns grid: a +- window lands on stops, and on other
        # starts' edges; blocks of 7 starts, so a call ranks several blocks
        rng = np.random.default_rng(40)
        grid = np.sort(rng.integers(0, 400, 300) * 0.25)
        a, b = {
            "grid": (np.sort(rng.integers(0, 400, 300) * 0.25), grid),
            "unsorted": (rng.integers(0, 400, 300) * 0.25, grid),
            "sparse_starts": (np.array([1.0, 30.0, 31.0, 99.75]), grid),
            "no_starts": (np.array([]), grid),
            "no_stops": (grid, np.array([])),
            "one_start": (np.array([50.0]), grid),
            "one_stop": (grid, np.array([50.0])),
        }[arms]
        window, ranked, rank = 2.0, [], hbt_module._rank

        def keep(stops, keys, side):
            at = rank(stops, keys, side)
            ranked.append((keys, side))
            assert np.array_equal(at, np.searchsorted(stops, keys, side)), side
            return at

        monkeypatch.setattr(hbt_module, "_PAIR_CHUNK", 7)
        monkeypatch.setattr(hbt_module, "_MERGE_RATIO", ratio)
        monkeypatch.setattr(hbt_module, "_rank", keep)
        h = correlate(a, b, window=window, bin_width=0.04, duration=100.0)
        assert np.array_equal(h.counts, per_start_counts(a, b, window, 0.04))
        # lo ranks each start's a - window, hi its a + window, every start once
        for side, shift in (("left", -window), ("right", window)):
            keys = [k for k, s in ranked if s == side]
            assert len(keys) == -(-a.size // 7)
            assert np.array_equal(np.concatenate(keys or [[]]), np.sort(a) + shift)

    def test_memory_per_start_is_bounded(self):
        # 1e6 sorted starts and stops, about one pair per start: the two
        # per-start index arrays (int32) and one block's temporaries
        rng = np.random.default_rng(39)
        a = np.sort(rng.uniform(0, 1e6, 10**6))
        b = np.sort(rng.uniform(0, 1e6, 10**6))
        tracemalloc.start()  # traces only what correlate allocates
        try:
            h = correlate(a, b, window=0.5, bin_width=0.01, duration=1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.counts.sum() == pytest.approx(a.size, rel=0.01)
        assert peak / a.size <= 16.0

    def test_pairs_over_the_cap_rejected_before_counting(self):
        # 1e5 clicks on each arm within one window: 1e10 pairs
        clicks = np.linspace(0.0, 1.0, 100_000)
        with pytest.raises(InvalidInput, match="window 10 ns holds 1e[+]10 click pairs"):
            correlate(clicks, clicks, window=10.0, bin_width=0.1, duration=1e3)

    def test_histogram_keeps_the_width_of_its_bins(self):
        # 2 * 10 / 0.15 = 133.3: 133 bins, each 0.25 % wider than asked for
        a = np.sort(np.random.default_rng(37).uniform(0, 1e3, 500))
        h = correlate(a, a, window=10.0, bin_width=0.15, duration=1e3)
        assert h.tau_centers.size == 133
        assert h.bin_width == 20.0 / 133
        assert np.diff(h.tau_centers) == pytest.approx(h.bin_width, rel=1e-9)

    def test_bin_window_contract(self):
        with pytest.raises(InvalidInput):
            correlate([], [], window=10.0, bin_width=1.0, duration=1e3)

    def test_bin_count_cap(self):
        # 2e9 bins would be about 15 GiB of edges; the cap is read before any
        with pytest.raises(InvalidInput, match="more than the cap"):
            correlate([], [], window=1e9, bin_width=1.0, duration=1e3)
        h = correlate([], [], window=5e5, bin_width=1.0, duration=1e3)  # at the cap
        assert h.counts.size == 10**6

    def test_empty_stream_histogram(self):
        h = correlate([], np.arange(10.0), window=50.0, bin_width=1.0, duration=1e3)
        assert h.counts.sum() == 0
        with pytest.raises(InvalidInput):
            h.g2()

    def test_csv_round_trip(self, tmp_path):
        a = np.sort(np.random.default_rng(14).uniform(0, 1e4, 500))
        b = np.sort(np.random.default_rng(15).uniform(0, 1e4, 500))
        h = correlate(a, b, window=50.0, bin_width=1.0, duration=1e4)
        path = tmp_path / "hist.csv"
        h.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[5] == "tau_ns,counts,g2_normalized"
        assert len(lines) == 6 + len(h.tau_centers)

    def test_csv_bytes(self, tmp_path):
        h = CorrelationHistogram(
            np.array([-1.0, 0.0, 1.0]), np.array([3.0, 1.0]), 2, 4, 8.0, ("X2", "X")
        )
        h.to_csv(tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"# mode = cross\n# source_lines = X2,X\n# n_a = 2\n# n_b = 4\n"
            b"# duration_ns = 8.000000000\ntau_ns,counts,g2_normalized\n"
            b"-0.500000,3,3.00000000e+00\n0.500000,1,1.00000000e+00\n"
        )

    def test_peak_areas_csv_bytes(self, tmp_path):
        raw = np.array([4.0, 1.0, 4.0])
        PeakAreas(np.arange(-1, 2), raw / 4.0, raw, 1).to_csv(tmp_path / "peaks.csv")
        assert (tmp_path / "peaks.csv").read_bytes() == (
            b"# m_far = 1\nm,area\n-1,1.00000000e+00\n0,2.50000000e-01\n1,1.00000000e+00\n"
        )

    @pytest.mark.parametrize(
        "source_lines,mode", [((None, None), "auto"), (("X", "X"), "auto"), (("X2", "X"), "cross")]
    )
    def test_csv_mode_follows_the_source_lines(self, tmp_path, source_lines, mode):
        a = np.arange(10.0)
        correlate(a, a, 50.0, 1.0, 10.0, source_lines).to_csv(tmp_path / "hist.csv")
        header = (tmp_path / "hist.csv").read_text().splitlines()[:2]
        assert header == [f"# mode = {mode}", "# source_lines = {},{}".format(*source_lines)]


class TestZeroDelayBin:
    @pytest.mark.parametrize(
        "window,bin_width,n_bins",
        [(1.4, 0.025, 112), (7.3, 0.11, 133), (0.7, 0.01, 140)],
        ids=["even-count", "odd-count-centred-bin", "middle-edge-off-zero"],
    )
    def test_g2_zero_reads_bin_n_minus_1_over_2(self, window, bin_width, n_bins):
        edges = hbt_module._correlation_edges(window, bin_width)
        zero = (n_bins - 1) // 2
        counts = np.ones(n_bins)
        counts[zero] = 7.0
        h = CorrelationHistogram(edges, counts, 1, 1, 1.0)
        assert h.counts.size == n_bins
        # the bin ends at tau = 0 for an even count and is centred on it for an odd one
        assert abs(edges[zero + 1] if n_bins % 2 == 0 else h.tau_centers[zero]) < 1e-12
        assert h.g2_zero() == pytest.approx(7.0 * h.g2()[0], rel=1e-12)


class TestClosedForm:
    def test_perfect_source(self):
        assert g2_zero_closed_form(1.0, 0.0) == 0.0

    def test_pure_noise(self):
        assert g2_zero_closed_form(0.0, 1.0) == 1.0

    def test_balanced_rates(self):
        assert g2_zero_closed_form(2.0, 2.0) == pytest.approx(0.75)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInput):
            g2_zero_closed_form(0.0, 0.0)

    def test_monte_carlo_matches_closed_form(self):
        model = QDModel(shelve_probability=0.0, capture_rate=0.2)
        rec = simulate(model, DriveProgram(mode="DC", duration=1e6), seed=16)
        signal = len(rec.times(LINE_X)) / rec.duration
        dark = 1.0 * signal * 1e9  # counts/s, noise equal to signal
        det = DetectorPair(dark_rate=dark)
        a, b = detect(rec, det, seed=17, line_filter_a=LINE_X, line_filter_b=LINE_X)
        h = correlate(a, b, window=2.5, bin_width=0.05, duration=rec.duration)
        i0 = (h.counts.size - 1) // 2  # the bin g2_zero reads
        measured = h.g2_zero()
        expected = g2_zero_closed_form(signal, dark * 1e-9)
        se = np.sqrt(max(h.counts[i0], 1.0)) / (h.n_a * h.n_b * h.bin_width / h.duration)
        assert abs(measured - expected) < 3.0 * se


class TestPeakAreas:
    def test_poisson_source_all_areas_unity(self):
        from speds.qd import pulsed_poisson_record

        rec = pulsed_poisson_record(80.0, 0.3, 3e5, seed=18)
        a, b = detect(rec, DetectorPair(), seed=19)
        h = correlate(a, b, window=200.0, bin_width=1.0, duration=rec.duration)
        areas = peak_area_analysis(h, 80.0, m_far=10)
        for m in range(-9, 10):
            raw = areas.raw(m)
            se = areas.area(m) / np.sqrt(max(raw, 1.0))
            assert abs(areas.area(m) - 1.0) < 3.0 * se + 0.02

    @pytest.mark.parametrize(
        "rate,window,bin_width",
        [(1070.0, 12.0, 0.05), (80.0, 160.0, 0.5)],
        ids=["period-not-whole-bins", "bins-centred-on-window-edges"],
    )
    def test_flat_histogram_gives_every_window_one_period(self, rate, window, bin_width):
        n_bins = int(round(2 * window / bin_width))
        edges = np.linspace(-window, window, n_bins + 1)
        h = CorrelationHistogram(edges, np.ones(n_bins), 1, 1, 1.0)
        areas = peak_area_analysis(h, rate, m_far=10)
        np.testing.assert_allclose(areas.raw_counts, 1e3 / rate / bin_width, rtol=1e-9)
        np.testing.assert_allclose(areas.areas, 1.0, rtol=1e-9)

    def test_peak_reach_raises_exactly_when_peak_area_analysis_does(self):
        windows = [(131.25, 0.03), (58.5, 1.11), (56.0, 1.1112222222222223), (160.0, 0.5),
                   (12.0, 0.05), (100.0, 2.0), (313.0, 6.0)]
        outcomes = {}
        for (window, bin_width), rate, m_far in itertools.product(
            windows, (40.0, 80.0, 900.0, 1070.0), (1, 5, 10, 12, 49, 60)
        ):
            edges = hbt_module._correlation_edges(window, bin_width)
            h = CorrelationHistogram(edges, np.ones(edges.size - 1), 1, 1, 1.0)
            raised = []
            for check in (lambda: hbt_module._peak_reach(edges, rate, m_far),
                          lambda: peak_area_analysis(h, rate, m_far)):
                try:
                    check()
                    raised.append(False)
                except InvalidInput:
                    raised.append(True)
            assert raised[0] == raised[1], (window, bin_width, rate, m_far)
            outcomes[window, bin_width, rate, m_far] = raised[0]
        assert not outcomes[131.25, 0.03, 80.0, 10]
        assert outcomes[58.5, 1.11, 900.0, 10]
        assert not outcomes[56.0, 1.1112222222222223, 900.0, 10]

    def test_overlapping_windows_rejected(self):
        a = np.sort(np.random.default_rng(20).uniform(0, 1e4, 2000))
        h = correlate(a, a, window=100.0, bin_width=2.0, duration=1e4)
        with pytest.raises(InvalidInput):
            peak_area_analysis(h, 1070.0)  # 0.93 ns period < 2 ns bins

    def test_eq1_matched_noise_gives_011_central_area(self):
        model = QDModel(tau_x=0.8, tau_x2=0.3, capture_rate=12.0, shelve_probability=0.0)
        drive = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=20.0,
                             duration=2e6)
        rec = simulate(model, drive, seed=21)
        signal = len(rec.times(LINE_X)) / rec.duration
        x = 1.0 / np.sqrt(1.0 - 0.11) - 1.0  # Eq.(1) inverted for noise/signal
        det = DetectorPair(dark_rate=x * signal * 1e9)
        assert g2_zero_closed_form(signal, x * signal) == pytest.approx(0.11, abs=1e-12)
        a, b = detect(rec, det, seed=22, line_filter_a=LINE_X, line_filter_b=LINE_X)
        h = correlate(a, b, window=160.0, bin_width=0.5, duration=rec.duration)
        areas = peak_area_analysis(h, 80.0, m_far=10)
        se = areas.area(0) / np.sqrt(max(areas.raw(0), 1.0))
        assert abs(areas.area(0) - 0.11) < 3.0 * se

    def test_two_state_shelving_chain_oracle(self):
        width, capture = 100.0, 7.0
        q_exc = 1.0 - np.exp(-capture * width * 1e-3)
        sp, u = 0.5, 0.05
        model = QDModel(tau_x=0.3, tau_x2=0.1, capture_rate=capture,
                        shelve_probability=sp, unshelve_rate=u)
        drive = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=width,
                             duration=2e6)
        rec = simulate(model, drive, seed=13)
        a, b = detect(rec, DetectorPair(), seed=14, line_filter_a=LINE_X, line_filter_b=LINE_X)
        h = correlate(a, b, window=313.0, bin_width=6.0, duration=rec.duration)
        areas = peak_area_analysis(h, 80.0, m_far=12)
        oracle = shelving_peak_areas(np.arange(1, 7), q_exc, sp, u, drive.period)
        for m, expected in zip(range(1, 7), oracle):
            measured = 0.5 * (areas.area(m) + areas.area(-m))
            raw = areas.raw(m) + areas.raw(-m)
            se = measured / np.sqrt(raw)
            assert abs(measured - expected) < 3.0 * se

    def test_refilling_monotonicity(self):
        # area(0) grows with pulse_width / tau_X.  A 50 ps pulse leaves almost
        # no time to refill, so its area(0) is the leak of the +-1 peaks into
        # the zero window, exp(-T / (2 tau_X)) = 0.051 without refilling.
        model = QDModel(tau_x=2.1, tau_x2=0.68, capture_rate=2.0, shelve_probability=0.0)
        a0 = []
        for width_ps in (50.0, 3000.0, 8000.0):
            drive = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=width_ps,
                                 duration=4e5)
            rec = simulate(model, drive, seed=23)
            a, b = detect(rec, DetectorPair(), seed=24,
                          line_filter_a=LINE_X, line_filter_b=LINE_X)
            h = correlate(a, b, window=160.0, bin_width=0.5, duration=rec.duration)
            areas = peak_area_analysis(h, 80.0, m_far=10)
            a0.append(areas.area(0))
            if width_ps == 50.0:
                far_mean = areas.raw_counts[np.abs(areas.orders) >= 10].mean()
                oracle = unrefilled_zero_area(drive.period, model.tau_x)
                se = np.sqrt(oracle / far_mean)  # Poisson error of the oracle's count
        assert abs(a0[0] - oracle) < 3.0 * se
        assert a0[0] < a0[1] < a0[2]


class TestCrossCorrelation:
    def test_cascade_bunching_asymmetry(self):
        model = QDModel(capture_rate=2.0, shelve_probability=0.0)
        rec = simulate(model, DriveProgram(mode="DC", duration=5e5), seed=25)
        h = cross_correlate_lines(rec, LINE_X2, LINE_X, DetectorPair(), seed=26,
                                  window=15.0, bin_width=0.1)
        g2 = h.g2()
        expected_counts = h.n_a * h.n_b * h.bin_width / h.duration
        early_pos = (h.tau_centers > 0.0) & (h.tau_centers < 0.6)
        early_neg = (h.tau_centers < 0.0) & (h.tau_centers > -0.6)
        pos, neg = g2[early_pos].mean(), g2[early_neg].mean()
        se = 1.0 / np.sqrt(expected_counts * early_pos.sum())
        assert pos > 1.0 + 3.0 * se  # bunched: X follows its X2
        assert neg < 1.0 - 3.0 * se  # anti-correlated: no X just before an X2

    def test_a_kept_record_is_unchanged_and_detected_then_correlated(self):
        model = QDModel(capture_rate=2.0, shelve_probability=0.0)
        rec = simulate(model, DriveProgram(mode="DC", duration=2e4), seed=29)
        times, codes = rec.time_ns.copy(), rec.line_code.copy()
        detectors = DetectorPair(efficiency=0.8, dark_rate=1e6, timing_jitter_sigma=40.0)
        h = cross_correlate_lines(rec, LINE_X2, LINE_X, detectors, seed=30,
                                  window=15.0, bin_width=0.1)
        np.testing.assert_array_equal(rec.time_ns, times)
        np.testing.assert_array_equal(rec.line_code, codes)
        assert rec.duration == 2e4
        a, b = detect(rec, detectors, 30, line_filter_a=LINE_X2, line_filter_b=LINE_X)
        expected = correlate(a, b, 15.0, 0.1, rec.duration, (LINE_X2, LINE_X))
        np.testing.assert_array_equal(h.counts, expected.counts)
        assert (h.n_a, h.n_b, h.duration, h.source_lines) == (
            expected.n_a, expected.n_b, expected.duration, expected.source_lines
        )

    def test_mutually_exclusive_lines_dip_symmetrically(self):
        model = QDModel(capture_rate=1.0, shelve_probability=0.15, unshelve_rate=0.05,
                        marker_rate=0.5)
        rec = simulate(model, DriveProgram(mode="DC", duration=5e5), seed=27)
        h = cross_correlate_lines(rec, LINE_X, LINE_MARKER, DetectorPair(), seed=28,
                                  window=40.0, bin_width=0.5)
        g2 = h.g2()
        expected_counts = h.n_a * h.n_b * h.bin_width / h.duration
        near_pos = (h.tau_centers > 0.0) & (h.tau_centers < 5.0)
        near_neg = (h.tau_centers < 0.0) & (h.tau_centers > -5.0)
        pos, neg = g2[near_pos].mean(), g2[near_neg].mean()
        se = 1.0 / np.sqrt(expected_counts * near_pos.sum())
        # the dip straddles tau = 0: both sides suppressed, unlike the cascade case
        assert pos < 1.0 - 3.0 * se
        assert neg < 1.0 - 3.0 * se
        assert pos < 0.7 and neg < 0.7


class TestValidationHbt:
    def test_bad_efficiency_rejected(self):
        with pytest.raises(InvalidInput):
            DetectorPair(efficiency=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidInput):
            g2_zero_closed_form(-1.0, 1.0)
