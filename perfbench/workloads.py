"""Benchmark workloads: the CLI runs each one makes and the checks on their outputs.

A workload is a fixed list of ``speds <command> --preset <name>`` runs (one
pass).  Every run is checked after it ends; a run whose exit code is not 0 or
whose outputs fail a check counts as failed.  The reasons for choosing each
workload are in README.md next to this file.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

# The statistical checks allow this many standard errors.  For a correct
# program the chance of exceeding it is about 2e-9 per run, so no seed the
# benchmark accepts fails by chance in practice.
G2_SE_LIMIT = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple  # (subcommand, preset) pairs; one pass makes each run once
    active: tuple  # traced functions that every traced pass must call
    idle: tuple  # layers (speds modules) that no traced pass may call


OPTICS_LAYERS = ("multilayer", "dipole", "designer")
HBT_LAYERS = ("qd", "hbt")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "optics",
            (
                ("emission-pattern", "fig6a_no_cavity"),
                ("emission-pattern", "fig6b_cavity"),
                ("emission-pattern", "homogeneous"),
                ("cavity-sweep", "fig5_sweep"),
                ("cavity-sweep", "top_mirror_study"),
            ),
            active=(
                "multilayer.stack_rt",
                "dipole.emission_pattern",
                "dipole.direct_collection_efficiency",
                "dipole.adaptive_integral",
                "designer.sweep_bottom_mirror",
                "designer.optimize_top_mirror",
                "cli.write",
            ),
            idle=HBT_LAYERS,
        ),
        Workload(
            "hbt",
            (
                ("hbt", "dc_eq1"),
                ("cross-corr", "cascade_x2_x"),
                ("hbt", "ghz_ideal"),
                ("hbt", "fig10_shelving"),
                ("hbt", "fig8_jitter"),
                ("hbt", "fig8_full_reset"),
                ("hbt", "laser_80mhz"),
            ),
            active=(
                "qd.simulate",
                "qd.EmissionRecord.times",
                "qd.decay_profile",
                "qd.fit_decay_time",
                "qd.pulsed_poisson_record",
                "hbt.detect",
                "hbt.correlate",
                "hbt.cross_correlate_lines",
                "hbt.peak_area_analysis",
                "cli.write",
            ),
            idle=OPTICS_LAYERS,
        ),
    )
}


def _read_histogram(path):
    """Header fields and (tau, counts) columns of a ``histogram.csv``."""
    header, taus, counts = {}, [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif not line.startswith("tau_ns"):
                tau, count, _ = line.split(",")
                taus.append(float(tau))
                counts.append(float(count))
    return header, taus, counts


def _read_sweep(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {int(p): float(e) for p, e in rows}


def _check_fig6a(summary, config, out_dir):
    # criterion 1: the numeric efficiency is within 10% of the closed form
    from speds.dipole import analytic_no_cavity_efficiency
    from speds.multilayer import N_GAAS

    eta = summary["collection_efficiency"]
    ref = analytic_no_cavity_efficiency(N_GAAS, summary["numerical_aperture"])
    if abs(eta - ref) / ref >= 0.10:
        return [f"collection_efficiency {eta:.6f} vs analytic {ref:.6f}"]
    return []


def _check_homogeneous(summary, config, out_dir):
    if abs(summary["total_power"] - 1.0) >= 1e-4:
        return [f"total_power {summary['total_power']:.8f} is not 1"]
    return []


def _check_fig5(summary, config, out_dir):
    # criterion 2: monotone from N = 2, saturated by N = 20 at about 8%,
    # so the argmax lies in the saturated tail
    eta = _read_sweep(os.path.join(out_dir, summary["outputs"][0]))
    problems = []
    tail = [eta[n] for n in range(2, 26)]
    if not all(b >= a - 1e-9 for a, b in zip(tail, tail[1:])):
        problems.append("efficiency is not monotone in the bottom periods")
    if abs(eta[20] - eta[25]) >= 5e-4 or abs(eta[25] - 0.08) >= 0.01:
        problems.append(f"no saturation near 8%: eta(20)={eta[20]:.5f}, eta(25)={eta[25]:.5f}")
    if summary["NA=0.5"]["argmax_periods"] < 20:
        problems.append(f"argmax {summary['NA=0.5']['argmax_periods']} periods is below 20")
    return problems


def _check_top_mirror(summary, config, out_dir):
    # criterion 4: optimum at 4 top periods with 11.8% +- 1.5%
    best, eta = summary["argmax_top_periods"], summary["best_efficiency"]
    if best != 4 or abs(eta - 0.118) >= 0.015:
        return [f"optimum {best} periods at {eta:.4f}, expected 4 at 0.118"]
    return []


def _check_dc_eq1(summary, config, out_dir):
    # criterion 5: measured g2(0) matches Eq. (1) within the counting error
    header, taus, counts = _read_histogram(os.path.join(out_dir, "histogram.csv"))
    i0 = min(range(len(taus)), key=lambda i: abs(taus[i]))
    bin_width = taus[1] - taus[0]
    expected = (
        int(header["n_a"]) * int(header["n_b"]) * bin_width / float(header["duration_ns"])
    )
    se = math.sqrt(max(counts[i0], 1.0)) / expected
    measured, predicted = summary["g2_zero_measured"], summary["g2_zero_eq1_prediction"]
    if abs(measured - predicted) >= G2_SE_LIMIT * se:
        return [f"g2(0) {measured:.4f} vs Eq.(1) {predicted:.4f} (SE {se:.4f})"]
    return []


def _check_cascade(summary, config, out_dir):
    hi, lo = summary["g2_max_positive_tau"], summary["g2_min_negative_tau"]
    if not hi > 1.0 > lo:
        return [f"no cascade asymmetry: max g2(tau>0) {hi:.3f}, min g2(tau<0) {lo:.3f}"]
    return []


def _check_ghz(summary, config, out_dir):
    # a classical source gives 1; the dot stays far below at any seed
    if summary["peak_area_zero"] >= 0.5:
        return [f"peak_area_zero {summary['peak_area_zero']:.3f} is not antibunched"]
    return []


def _check_jitter(summary, config, out_dir):
    tau_x = config["model"]["tau_x"]
    fitted = summary["fitted_decay_ns"]
    if not abs(fitted - tau_x) / tau_x < 0.15:
        return [f"fitted decay {fitted:.3f} ns, expected tau_X = {tau_x} ns"]
    return []


CHECKS = {
    "fig6a_no_cavity": _check_fig6a,
    "homogeneous": _check_homogeneous,
    "fig5_sweep": _check_fig5,
    "top_mirror_study": _check_top_mirror,
    "dc_eq1": _check_dc_eq1,
    "cascade_x2_x": _check_cascade,
    "ghz_ideal": _check_ghz,
    "fig8_jitter": _check_jitter,
}


def _numbers(value, key=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, float):
        yield key, value


def check_outputs(preset, config, out_dir):
    """Problems with one run's outputs; an empty list means they are correct."""
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = [f"{k} is not finite" for k, v in _numbers(summary) if not math.isfinite(v)]
    check = CHECKS.get(preset)
    if check is not None and not problems:
        try:
            problems += check(summary, config, out_dir)
        except (OSError, LookupError, ValueError, TypeError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
    return problems
