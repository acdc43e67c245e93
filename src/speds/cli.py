"""Command-line front end: presets and custom JSON configs to CSV/JSON results.

Subcommands: emission-pattern, cavity-sweep, hbt, cross-corr, throughput.
Every run is deterministic given (config, seed); all outputs land in --out.
Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from functools import partial

import numpy as np

from . import dipole, hbt, qd
from .designer import (
    FIG5_PRESET,
    TOP_MIRROR_PRESET,
    CavityDesign,
    geometry_for,
    optimize_top_mirror,
    sweep_bottom_mirror,
    write_sweep_csvs,
)
from .errors import InvalidInput, NumericalFailure, UnsupportedInput
from .multilayer import DESIGN_WAVELENGTH_NM, LayerStack
from .presets import available_presets, load_preset

EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The keys each command reads, by nesting level: None marks a value, a dict a
# block, and a dataclass a block whose keys are the dataclass fields.
_leaves = dict.fromkeys
_QD_SOURCE_KEYS = {
    "source": None,
    "model": qd.QDModel,
    "drive": qd.DriveProgram,
    "poisson": _leaves(("rate_per_ns", "duration", "repetition_rate",
                        "mean_photons_per_pulse", "jitter_ns")),
    "detectors": hbt.DetectorPair,
    "noise_to_signal_ratio": None,
    "target_g2_zero": None,
    "line_filter": None,
    "correlation": _leaves(("window", "bin_width")),
}
_THROUGHPUT_FACTORS = ("collection_gain", "rate_gain", "qe_factor")
_TOP_STUDY_KEYS = ("bottom_periods", "max_top", "numerical_aperture")
_CONFIG_KEYS = {
    "emission-pattern": {
        "homogeneous": _leaves(("refractive_index",)),
        "design": CavityDesign,
        "pattern": _leaves(("angular_resolution", "include_guided_spike")),
        "numerical_aperture": None,
    },
    "cavity-sweep": _leaves(("study", "max_periods", "numerical_apertures", *_TOP_STUDY_KEYS)),
    "hbt": {
        **_QD_SOURCE_KEYS,
        "analysis": {
            "m_far": None,
            "decay_fit": _leaves(("line", "bin_ps", "t_start", "t_stop")),
        },
    },
    "cross-corr": {**_QD_SOURCE_KEYS, "lines": None},
    "throughput": {"factors": _leaves(_THROUGHPUT_FACTORS)},
}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _geometry_from_config(config):
    if "homogeneous" in config:
        n = config["homogeneous"].get("refractive_index", 1.0)
        lam = DESIGN_WAVELENGTH_NM
        half = LayerStack(n, (), n)
        return dipole.EmissionGeometry(half, half, dipole.DipoleSource(lam, n, lam, lam))
    if "design" not in config:
        raise InvalidInput("emission-pattern config needs a 'design' or 'homogeneous' block")
    return geometry_for(CavityDesign(**config["design"]))


def cmd_emission_pattern(config, out_dir):
    na = dipole._check_numerical_aperture(config.get("numerical_aperture", 0.5))
    geometry = _geometry_from_config(config)
    spectrum = dipole.emission_pattern(geometry, **config.get("pattern", {}))
    csv_path = os.path.join(out_dir, "emission_pattern.csv")
    spectrum.to_csv(csv_path)
    eta = dipole.direct_collection_efficiency(geometry, na, spectrum.total_power)
    summary = {
        "collection_efficiency": eta,
        "numerical_aperture": na,
        "total_power": spectrum.total_power,
        "guided_power": spectrum.guided_power,
        "radiated_power": spectrum.radiated_power(),
        "outputs": ["emission_pattern.csv"],
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"eta(NA={na:g}) = {100.0 * eta:.4f}%")
    return 0


def cmd_cavity_sweep(config, out_dir):
    study = config.get("study", "bottom")
    if study == "bottom":
        results = sweep_bottom_mirror(
            config.get("max_periods", 25), config.get("numerical_apertures", [0.5])
        )
        paths = write_sweep_csvs(out_dir, FIG5_PRESET, results)
        summary = {}
        for na, res in results.items():
            summary[f"NA={na:g}"] = {
                "argmax_periods": res.best_parameter,
                "best_efficiency": res.best_efficiency,
                "asymptote_efficiency": res.efficiencies[-1],
            }
            print(
                f"NA={na:g}: argmax N={res.best_parameter}, "
                f"eta={100.0 * res.best_efficiency:.4f}%"
            )
    elif study == "top":
        res = optimize_top_mirror(**{k: config[k] for k in _TOP_STUDY_KEYS if k in config})
        paths = write_sweep_csvs(out_dir, TOP_MIRROR_PRESET, res)
        summary = {
            "argmax_top_periods": res.best_parameter,
            "best_efficiency": res.best_efficiency,
        }
        print(
            f"argmax top periods = {res.best_parameter}, "
            f"eta = {100.0 * res.best_efficiency:.4f}%"
        )
    else:
        raise InvalidInput(f"study must be 'bottom' or 'top', got {study!r}")
    summary["outputs"] = [os.path.basename(p) for p in paths]
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return 0


def _source_from_config(config):
    """The configured photon source, built and checked but not yet sampled.

    Returns ``(sample, repetition_rate, pulsed_drive)``: ``sample(seed)`` draws
    the ``EmissionRecord``; the repetition rate (MHz) is None for a DC source,
    and the drive is the qd source's pulsed ``DriveProgram``, else None.
    """
    source = config.get("source", "qd")
    if source == "qd":
        model = qd.QDModel(**config.get("model", {}))
        drive = qd.DriveProgram(**config.get("drive", {}))
        sample = partial(qd.simulate, model, drive)
        if drive.mode == qd.MODE_PULSED:
            return sample, drive.repetition_rate, drive
        return sample, None, None
    if source == "poisson_dc":
        p = config["poisson"]
        return partial(qd.poisson_photon_record, p["rate_per_ns"], p["duration"]), None, None
    if source == "poisson_pulsed":
        p = config["poisson"]
        jitter = {"jitter_ns": p["jitter_ns"]} if "jitter_ns" in p else {}
        sample = partial(
            qd.pulsed_poisson_record,
            p["repetition_rate"],
            p["mean_photons_per_pulse"],
            p["duration"],
            **jitter,
        )
        return sample, p["repetition_rate"], None
    raise InvalidInput(f"unknown source {source!r}")


def _detectors_from_config(config, signal_per_ns):
    det_cfg = dict(config.get("detectors", {}))
    ratio = config.get("noise_to_signal_ratio")
    target = config.get("target_g2_zero")
    if target is not None:
        if not 0.0 <= target < 1.0:
            raise InvalidInput(f"target_g2_zero must be in [0, 1), got {target}")
        # invert g2 = (2x + x^2) / (1 + x)^2 for the noise/signal ratio x
        ratio = 1.0 / np.sqrt(1.0 - target) - 1.0
    if ratio is not None:
        det_cfg["dark_rate"] = ratio * signal_per_ns * 1e9
    return hbt.DetectorPair(**det_cfg), ratio


def cmd_hbt(config, out_dir, seed):
    sample, repetition_rate, drive = _source_from_config(config)
    analysis = config.get("analysis", {})
    if "m_far" in analysis and repetition_rate is None:
        raise InvalidInput(
            "analysis.m_far needs a pulsed source: peak areas are read at its repetition rate"
        )
    if "decay_fit" in analysis and drive is None:
        raise InvalidInput("analysis.decay_fit needs a qd source with a pulsed drive")
    record = sample(seed)
    line = config.get("line_filter")
    signal_per_ns = record.times(line).size / record.duration
    detectors, noise_ratio = _detectors_from_config(config, signal_per_ns)
    clicks_a, clicks_b = hbt.detect(
        record, detectors, seed + 1, line_filter_a=line, line_filter_b=line
    )
    corr_cfg = config["correlation"]
    hist = hbt.correlate(
        clicks_a,
        clicks_b,
        corr_cfg["window"],
        corr_cfg["bin_width"],
        record.duration,
        source_lines=(line, line),
    )
    hist.to_csv(os.path.join(out_dir, "histogram.csv"))

    noise_per_ns = 2.0 * detectors.noise_rate_per_arm
    summary = {
        "n_clicks_a": int(hist.n_a),
        "n_clicks_b": int(hist.n_b),
        "signal_rate_per_ns": signal_per_ns,
        "noise_rate_per_ns": noise_per_ns,
        "g2_zero_measured": hist.g2_at(0.0),
        "g2_zero_eq1_prediction": hbt.g2_zero_closed_form(
            signal_per_ns, noise_per_ns, 0.0
        ),
    }
    if noise_ratio is not None:
        summary["noise_to_signal_ratio"] = noise_ratio

    if "m_far" in analysis:
        areas = hbt.peak_area_analysis(hist, repetition_rate, m_far=analysis["m_far"])
        areas.to_csv(os.path.join(out_dir, "peak_areas.csv"))
        summary["peak_area_zero"] = areas.area(0)
        summary["peak_area_one"] = areas.area(1)
    if "decay_fit" in analysis:
        fit_cfg = analysis["decay_fit"]
        profile_cfg = {k: v for k, v in fit_cfg.items() if k in ("line", "bin_ps")}
        centers, counts = qd.decay_profile(record, drive, **profile_cfg)
        summary["fitted_decay_ns"] = qd.fit_decay_time(
            centers, counts, fit_cfg["t_start"], fit_cfg["t_stop"]
        )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(
        f"g2(0) measured = {summary['g2_zero_measured']:.4f}, "
        f"Eq.(1) prediction = {summary['g2_zero_eq1_prediction']:.4f}"
    )
    return 0


def cmd_cross_corr(config, out_dir, seed):
    lines = config.get("lines")
    if not lines or len(lines) != 2:
        raise InvalidInput("cross-corr config needs 'lines': [start_line, stop_line]")
    sample, _, _ = _source_from_config(config)
    record = sample(seed)
    signal_per_ns = record.times(config.get("line_filter")).size / record.duration
    detectors, _ = _detectors_from_config(config, signal_per_ns)
    corr_cfg = config["correlation"]
    hist = hbt.cross_correlate_lines(
        record,
        lines[0],
        lines[1],
        detectors,
        seed + 1,
        corr_cfg["window"],
        corr_cfg["bin_width"],
    )
    hist.to_csv(os.path.join(out_dir, "histogram.csv"))
    g2 = hist.g2()
    pos = hist.tau_centers > 0
    summary = {
        "lines": list(lines),
        "n_clicks_a": int(hist.n_a),
        "n_clicks_b": int(hist.n_b),
        "g2_max_positive_tau": float(np.max(g2[pos])),
        "g2_min_negative_tau": float(np.min(g2[~pos])),
        "g2_zero": hist.g2_at(0.0),
        "outputs": ["histogram.csv"],
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(
        f"cross-correlation {lines[0]} -> {lines[1]}: "
        f"g2(0) = {summary['g2_zero']:.4f}"
    )
    return 0


def cmd_throughput(config, out_dir):
    factors = {k: config["factors"][k] for k in _THROUGHPUT_FACTORS}
    ratio = qd.throughput_ratio(**factors)
    _write_json(os.path.join(out_dir, "summary.json"), {**factors, "throughput_ratio": ratio})
    print(
        f"collection x{factors['collection_gain']:g} * rate x{factors['rate_gain']:g} * "
        f"QE x{factors['qe_factor']:g} = {ratio:g}"
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="speds",
        description="Planar-microcavity single-photon-diode simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("emission-pattern", "cavity-sweep", "hbt", "cross-corr", "throughput"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help=f"one of: {', '.join(available_presets())}")
        p.add_argument("--seed", type=int, help="override the config's seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


class _Block(dict):
    """A config block that names a missing key by its dotted path."""

    def __init__(self, items, path=""):
        super().__init__(
            (key, _Block(value, f"{path}{key}.") if isinstance(value, dict) else value)
            for key, value in items.items()
        )
        self.path = path

    def __missing__(self, key):
        raise InvalidInput(f"missing config key {self.path}{key}")


def _merged(base, overrides):
    """``base`` with ``overrides`` merged in; a block is merged key by key."""
    merged = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = _merged(merged[key], value)
        merged[key] = value
    return merged


def _check_keys(block, known, path=""):
    """Reject the first key, at any nesting level, that the command does not read."""
    for key, value in block.items():
        if key not in known:
            raise InvalidInput(f"unknown config key {path}{key}")
        sub = known[key]
        if is_dataclass(sub):
            sub = _leaves(f.name for f in fields(sub))
        if sub is not None and isinstance(value, dict):
            _check_keys(value, sub, f"{path}{key}.")


def _load_config(args):
    if args.config is None and args.preset is None:
        raise InvalidInput("provide --preset and/or --config")
    config = {}
    if args.preset is not None:
        config = load_preset(args.preset)
    if args.config is not None:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise InvalidInput(
                f"config {args.config} must hold a JSON object, "
                f"not a {type(overrides).__name__}"
            )
        config = _merged(config, overrides)
    declared = config.get("command")
    if declared is not None and declared != args.command:
        raise InvalidInput(
            f"config is for command {declared!r}, invoked as {args.command!r}"
        )
    _check_keys(config, {"command": None, "seed": None, **_CONFIG_KEYS[args.command]})
    return _Block(config)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot create output directory: {exc}") from exc
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        if args.command == "emission-pattern":
            return cmd_emission_pattern(config, args.out)
        if args.command == "cavity-sweep":
            return cmd_cavity_sweep(config, args.out)
        if args.command == "hbt":
            return cmd_hbt(config, args.out, seed)
        if args.command == "cross-corr":
            return cmd_cross_corr(config, args.out, seed)
        if args.command == "throughput":
            return cmd_throughput(config, args.out)
        raise InvalidInput(f"unknown command {args.command!r}")
    except (
        InvalidInput,
        UnsupportedInput,
        KeyError,
        TypeError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailure, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
