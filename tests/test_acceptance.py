"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with plain `pytest` (the verdict lines bypass output capture) or with -s.
The statistical criteria use fixed seeds, so reruns are reproducible.
"""

import json
import time

import numpy as np
import pytest

import oracles
from speds import cli
from speds.designer import (
    CavityDesign,
    fig5_design,
    geometry_for,
    optimize_top_mirror,
    sweep_bottom_mirror,
)
from speds.dipole import (
    analytic_no_cavity_efficiency,
    direct_collection_efficiency,
    emission_pattern,
)
from speds.hbt import (
    DetectorPair,
    correlate,
    cross_correlate_lines,
    detect,
    g2_zero_closed_form,
    peak_area_analysis,
)
from speds.multilayer import (
    DESIGN_WAVELENGTH_NM,
    N_ALAS,
    N_GAAS,
    TE,
    TM,
    LayerStack,
    build_bragg,
    power_reflectance,
    power_transmittance,
)
from speds.qd import (
    LINE_X,
    DriveProgram,
    QDModel,
    decay_profile,
    fit_decay_time,
    simulate,
)

LAM = DESIGN_WAVELENGTH_NM


@pytest.fixture
def verdict(capsys):
    """Print a single PASS/FAIL line straight to the terminal, then assert."""

    def _verdict(number, description, ok):
        with capsys.disabled():
            print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
        assert ok, f"criterion {number} failed: {description}"

    return _verdict


@pytest.fixture(scope="module")
def no_cavity_pattern():
    return emission_pattern(geometry_for(fig5_design(0)), angular_resolution=0.25)


@pytest.fixture(scope="module")
def cavity_pattern():
    geom = geometry_for(fig5_design(12))
    return emission_pattern(geom, angular_resolution=0.25, include_guided_spike=True)


def downward_power(spectrum):
    mask = spectrum.theta_grid >= 150.0
    th = np.radians(spectrum.theta_grid[mask])
    return np.trapezoid(spectrum.power_density[mask], th)


def run_dc_g2_zero(noise_to_signal, seed):
    """Monte-Carlo g2(0) for a DC-driven dot with spectrally flat noise."""
    model = QDModel(capture_rate=0.2, shelve_probability=0.0)
    rec = simulate(model, DriveProgram(mode="DC", duration=3e6), seed=seed)
    signal = len(rec.times(LINE_X)) / rec.duration
    det = DetectorPair(dark_rate=noise_to_signal * signal * 1e9)
    a, b = detect(rec, det, seed=seed + 1, line_filter_a=LINE_X, line_filter_b=LINE_X)
    hist = correlate(a, b, window=2.5, bin_width=0.05, duration=rec.duration)
    i0 = (hist.counts.size - 1) // 2  # the bin g2_zero reads
    expected_counts = hist.n_a * hist.n_b * hist.bin_width / hist.duration
    se = np.sqrt(max(hist.counts[i0], 1.0)) / expected_counts
    return hist.g2_zero(), g2_zero_closed_form(signal, noise_to_signal * signal), se


def qe_ratio(tau_x, seed):
    """X counts with a 0.47 ns emission window over X counts without sweep-out."""
    model = QDModel(tau_x=tau_x, tau_x2=0.68, capture_rate=2.5,
                    shelve_probability=0.0, sweep_rate=1000.0)
    free = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=20.0,
                        duration=3e6)
    swept = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=20.0,
                         sweep_out_regime="full_reset", sweep_delay=0.45,
                         duration=3e6)
    n_free = len(simulate(model, free, seed=seed).times(LINE_X))
    n_swept = len(simulate(model, swept, seed=seed + 1).times(LINE_X))
    return n_swept / n_free


def fig10_areas(sweep_out, duration, seed):
    model = QDModel(tau_x=2.1, tau_x2=0.68, capture_rate=5.0,
                    shelve_probability=0.8, unshelve_rate=0.1, sweep_rate=50.0)
    kwargs = {"sweep_out_regime": sweep_out}
    if sweep_out == "full_reset":
        kwargs["sweep_delay"] = 0.7
    drive = DriveProgram(mode="pulsed", repetition_rate=500.0, pulse_width=100.0,
                         duration=duration, **kwargs)
    rec = simulate(model, drive, seed=seed)
    a, b = detect(rec, DetectorPair(), seed=seed + 1,
                  line_filter_a=LINE_X, line_filter_b=LINE_X)
    hist = correlate(a, b, window=40.0, bin_width=0.1, duration=rec.duration)
    return peak_area_analysis(hist, 500.0, m_far=10)


def test_criterion_1_analytic_efficiency(verdict):
    start = time.perf_counter()
    eta = analytic_no_cavity_efficiency(3.5, 0.5)
    c = np.cos(np.arcsin(0.5 / 3.5))
    closed = (1.0 - (2.5 / 4.5) ** 2) * (0.5 - 0.375 * c - 0.125 * c**3)
    numeric = direct_collection_efficiency(geometry_for(fig5_design(0)), 0.5)
    elapsed = time.perf_counter() - start
    ok = (
        abs(eta - closed) < 1e-4
        and abs(eta - 0.005) < 1e-3
        and abs(numeric - eta) / eta < 0.10
        and elapsed < 10.0
    )
    verdict(1, f"no-cavity efficiency {100 * eta:.3f}% analytic, "
               f"{100 * numeric:.3f}% numeric in {elapsed:.1f} s", ok)


def test_criterion_2_bottom_mirror_sweep(verdict):
    start = time.perf_counter()
    res = sweep_bottom_mirror(25, [0.5])[0.5]
    elapsed = time.perf_counter() - start
    eta = dict(zip(res.parameter_values, res.efficiencies))
    tail = [eta[n] for n in range(2, 26)]
    ok = (
        all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
        and abs(eta[20] - eta[25]) < 5e-4
        and abs(eta[25] - 0.08) < 0.01
        and elapsed < 300.0
    )
    verdict(2, f"bottom-mirror sweep saturates at {100 * eta[25]:.2f}% "
               f"in {elapsed:.0f} s", ok)


def oracle_downward_suppression(periods):
    """Downward power over theta >= 150 degrees, bare surface over cavity,
    from the reciprocity oracle (no speds code involved)."""
    powers = [
        oracles.downward_power(
            *oracles.dbr_cavity(n, LAM, N_GAAS, N_ALAS, 1.0, 3.0, 1.0),
            LAM, np.radians(30.0),
        )
        for n in (0, periods)
    ]
    return powers[0] / powers[1]


def normal_suppression_closed_form(periods):
    """|1 - r sqrt(R)|^2 / T at 180 degrees.  Both round trips in the fig5
    cavity are whole wavelengths and the mirror starts with AlAs, so the
    surface (r > 0) and mirror (+sqrt(R)) reflections add in phase."""
    r = (N_GAAS - 1.0) / (N_GAAS + 1.0)
    refl = oracles.dbr_reflectance(N_GAAS, N_GAAS, N_ALAS, N_GAAS, periods)
    return (1.0 - r * np.sqrt(refl)) ** 2 / (1.0 - refl)


def test_criterion_3_cavity_pattern(verdict, no_cavity_pattern, cavity_pattern):
    # No mirror of 11-25 periods reaches 10x in this geometry, so the
    # suppression is tied to independent references (docs/DECISIONS.md).
    eta = direct_collection_efficiency(
        geometry_for(fig5_design(12)), 0.5, cavity_pattern.total_power
    )
    suppression = downward_power(no_cavity_pattern) / downward_power(cavity_pattern)
    expected = oracle_downward_suppression(12)
    ratio_180 = no_cavity_pattern.power_density[-1] / cavity_pattern.power_density[-1]
    ratio_180_expected = normal_suppression_closed_form(12)
    i90 = np.argmin(np.abs(cavity_pattern.theta_grid - 90.0))
    enhanced = cavity_pattern.power_density[i90] > no_cavity_pattern.power_density[i90]
    ok = (
        abs(eta - 0.07) < 0.01
        and suppression > 1.0
        and abs(suppression / expected - 1.0) <= 0.005
        and abs(ratio_180 - ratio_180_expected) <= 1e-3
        and enhanced
    )
    verdict(3, f"12-period cavity eta {100 * eta:.2f}%, downward suppression "
               f"{suppression:.4f}x (oracle {expected:.4f}x), 180-degree ratio "
               f"{ratio_180:.5f}x (closed form {ratio_180_expected:.5f}x), "
               f"90-degree flow enhanced {enhanced}", ok)


def test_criterion_4_top_mirror_optimum(verdict, no_cavity_pattern):
    res = optimize_top_mirror(bottom_periods=12, max_top=10)
    improvement = res.best_efficiency / analytic_no_cavity_efficiency(3.5, 0.5)
    ok = (
        res.best_parameter == 4
        and abs(res.best_efficiency - 0.118) < 0.015
        and abs(improvement - 24.0) < 4.0
    )
    verdict(4, f"top-mirror optimum N={res.best_parameter} with "
               f"{100 * res.best_efficiency:.2f}%, improvement {improvement:.1f}x", ok)


def test_criterion_5_eq1_oracle(verdict):
    # x = noise/signal; x = 1 is the balanced R_S = R_D + R_BK point (0.75),
    # x = 0.0607 is the Eq.(1)-matched injection for a target g2(0) of 0.11
    settings = [1.0 / np.sqrt(1.0 - 0.11) - 1.0, 0.3, 1.0, 2.0, 5.0]
    ok = True
    details = []
    for i, x in enumerate(settings):
        start = time.perf_counter()
        measured, predicted, se = run_dc_g2_zero(x, seed=40 + 2 * i)
        elapsed = time.perf_counter() - start
        ok = ok and abs(measured - predicted) < 3.0 * se and elapsed < 120.0
        details.append(f"{predicted:.2f}")
    ok = ok and any(abs(float(d) - 0.75) < 0.005 for d in details)
    ok = ok and abs(float(details[0]) - 0.11) < 0.005
    verdict(5, "Eq.(1) closed form vs Monte Carlo at g2(0) = "
               + ", ".join(details) + " (all within 3 SE)", ok)


def test_criterion_6_cascade_and_exclusion(verdict):
    cascade_model = QDModel(capture_rate=2.0, shelve_probability=0.0)
    rec = simulate(cascade_model, DriveProgram(mode="DC", duration=5e5), seed=25)
    h = cross_correlate_lines(rec, "X2", "X", DetectorPair(), seed=26,
                              window=15.0, bin_width=0.1)
    g2 = h.g2()
    expected = h.n_a * h.n_b * h.bin_width / h.duration
    early_pos = (h.tau_centers > 0.0) & (h.tau_centers < 0.6)
    early_neg = (h.tau_centers < 0.0) & (h.tau_centers > -0.6)
    se = 1.0 / np.sqrt(expected * early_pos.sum())
    cascade_ok = (g2[early_pos].mean() > 1.0 + 3.0 * se
                  and g2[early_neg].mean() < 1.0 - 3.0 * se)

    excl_model = QDModel(capture_rate=1.0, shelve_probability=0.15,
                         unshelve_rate=0.05, marker_rate=0.5)
    rec = simulate(excl_model, DriveProgram(mode="DC", duration=5e5), seed=27)
    h = cross_correlate_lines(rec, "X", "marker", DetectorPair(), seed=28,
                              window=40.0, bin_width=0.5)
    g2 = h.g2()
    expected = h.n_a * h.n_b * h.bin_width / h.duration
    near_pos = (h.tau_centers > 0.0) & (h.tau_centers < 5.0)
    near_neg = (h.tau_centers < 0.0) & (h.tau_centers > -5.0)
    se = 1.0 / np.sqrt(expected * near_pos.sum())
    excl_ok = (g2[near_pos].mean() < 1.0 - 3.0 * se
               and g2[near_neg].mean() < 1.0 - 3.0 * se)
    verdict(6, f"cascade asymmetry {cascade_ok}, "
               f"mutual-exclusion dip on both sides {excl_ok}",
            cascade_ok and excl_ok)


def test_criterion_7_jitter_mode(verdict):
    model = QDModel(tau_x=2.1, tau_x2=0.68, capture_rate=5.0, shelve_probability=0.0)
    drive = DriveProgram(mode="pulsed", repetition_rate=80.0, pulse_width=20.0,
                         duration=2e6)
    rec = simulate(model, drive, seed=21)
    centers, counts = decay_profile(rec, drive, LINE_X, bin_ps=50.0)
    fitted = fit_decay_time(centers, counts, 1.5, 9.0)
    ratio_21 = qe_ratio(2.1, seed=23)
    ratio_068 = qe_ratio(0.68, seed=25)
    ok = (
        abs(fitted - 2.1) / 2.1 < 0.05
        and abs(ratio_21 - 0.20) < 0.02
        and abs(ratio_068 - 0.5) < 0.05
    )
    verdict(7, f"fitted decay {fitted:.2f} ns, QE ratios "
               f"{ratio_21:.3f} (tau 2.1 ns) and {ratio_068:.3f} (tau 0.68 ns)", ok)


def test_criterion_8_antibunching_control(verdict):
    shelved = fig10_areas("none", duration=1e6, seed=51)
    reset = fig10_areas("full_reset", duration=4e6, seed=53)
    near = [abs(shelved.area(m)) for m in (-2, -1, 1, 2)]
    flat = [reset.area(m) for m in range(-9, 10) if m != 0]
    ok = max(near) < 0.9 and all(abs(a - 1.0) < 0.05 for a in flat)
    verdict(8, f"shelving side peaks |m|<=2 max {max(near):.3f} < 0.9; "
               f"full_reset peaks within {100 * max(abs(a - 1) for a in flat):.1f}% "
               f"of the far mean", ok)


def test_criterion_9_throughput(verdict, tmp_path, capsys):
    rc = cli.main(["throughput", "--preset", "throughput_ghz", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    ratio = summary["throughput_ratio"]
    itemized = all(k in summary for k in ("collection_gain", "rate_gain", "qe_factor"))
    ok = (rc == 0 and "= 67" in out and abs(ratio - 65.0) / 65.0 < 0.05 and itemized)
    verdict(9, f"throughput ratio {ratio:g} vs 65 "
               f"({100 * abs(ratio - 65) / 65:.1f}% off), factors itemized", ok)


def test_criterion_10_determinism_and_conservation(verdict, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "source": "qd",
        "model": {"capture_rate": 0.5, "shelve_probability": 0.0},
        "drive": {"mode": "DC", "duration": 5e4},
        "line_filter": "X",
        "correlation": {"window": 2.5, "bin_width": 0.05},
        "seed": 5,
    }))
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["hbt", "--config", str(config), "--out", str(out)]) == 0
        outputs.append((out / "histogram.csv").read_bytes()
                       + (out / "summary.json").read_bytes())
    identical = outputs[0] == outputs[1]

    stack = build_bragg(N_GAAS, N_ALAS, LAM, 6, entry_index=N_GAAS, exit_index=1.0)
    k0 = 2 * np.pi / LAM
    critical = np.degrees(np.arcsin(1.0 / N_GAAS))
    kpar = N_GAAS * k0 * np.sin(np.radians(np.linspace(0.0, 0.98 * critical, 50)))
    worst = 0.0
    for pol in (TE, TM):
        total = power_reflectance(stack, LAM, kpar, pol) + power_transmittance(
            stack, LAM, kpar, pol
        )
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    conserved = worst < 1e-10

    half = LayerStack(1.0, (), 1.0)
    from speds.dipole import DipoleSource, EmissionGeometry

    homog = emission_pattern(
        EmissionGeometry(half, half, DipoleSource(LAM, 1.0, LAM, LAM)),
        angular_resolution=0.5,
    )
    normalized = abs(homog.total_power - 1.0) < 1e-4
    ok = identical and conserved and normalized
    verdict(10, f"byte-identical reruns {identical}, worst |R+T-1| = {worst:.1e}, "
                f"homogeneous power {homog.total_power:.6f}", ok)
