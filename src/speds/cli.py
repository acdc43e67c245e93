"""Command-line front end: presets and custom JSON configs to CSV/JSON results.

One command per entry of ``_COMMANDS``, all taking the same four options.
Every run is deterministic given (config, seed); all outputs land in --out,
and a run that fails writes none.
Exit codes: 0 success, 2 usage/config error (``InvalidInput`` or
``UnsupportedInput``), 3 numerical failure (``NumericalFailure``); any other
exception is a bug and ends in a traceback.
"""

import argparse
import inspect
import json
import os
import sys
from dataclasses import MISSING, fields, replace
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
)
from .errors import InvalidInput, NumericalFailure, UnsupportedInput, number
from .multilayer import DESIGN_WAVELENGTH_NM, LayerStack
from .presets import available_presets, load_preset

EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_leaves = dict.fromkeys


def _fields(cls):
    """A dataclass's block: its fields, each with its default (None if none)."""
    return {f.name: None if f.default is MISSING else f.default for f in fields(cls)}


def _keywords(fn):
    """A function's block: its parameters that have a default, with it."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


class _Optional(dict):
    """A block whose presence is the user's choice: filled only when given."""


# The keys every photon source shares: detection, noise and correlation.
_DETECTION_KEYS = {
    "source": None,
    "detectors": _fields(hbt.DetectorPair),
    "noise_to_signal_ratio": None,
    "target_g2_zero": None,
    "line_filter": None,
    "correlation": _leaves(("window", "bin_width")),
}
_ANALYSIS_KEYS = {
    "m_far": None,
    "decay_fit": _Optional(_keywords(qd.decay_profile), t_start=None, t_stop=None),
}
_THROUGHPUT_FACTORS = ("collection_gain", "rate_gain", "qe_factor")
_SWEEP_STUDIES = {"bottom": _keywords(sweep_bottom_mirror), "top": _keywords(optimize_top_mirror)}
# A DC drive has no pulses and no sweep-out between them.
_DC_DRIVE_KEYS = {k: v for k, v in _fields(qd.DriveProgram).items() if k in ("mode", "duration")}
# Expected events a photon source may draw: photons, plus the pulses of a
# pulsed Poisson source, or the periods x phase segments of a pulsed qd
# drive, which bound the segment passes of its pools' lane work.  The dark
# counts of a run are held to the same cap.  The largest preset,
# fig10_full_reset, asks for about 9e6 (3e6 captures, 6e6 segment passes);
# far above it a run would exhaust memory or time.
_MAX_SOURCE_EVENTS = 1e8


def _geometry_from_config(config):
    if "homogeneous" in config and "design" in config:
        raise InvalidInput("config gives both a 'design' and a 'homogeneous' block; give one")
    if "homogeneous" in config:
        n = config["homogeneous"]["refractive_index"]
        lam = DESIGN_WAVELENGTH_NM
        half = LayerStack(n, (), n)
        return dipole.EmissionGeometry(half, half, dipole.DipoleSource(lam, n, lam, lam))
    if "design" not in config:
        raise InvalidInput("config needs a 'design' or 'homogeneous' block")
    design = config["design"]
    # bottom_periods has no default: read it first, so a missing one is named
    return geometry_for(CavityDesign(**{"bottom_periods": design["bottom_periods"], **design}))


# Each handler maps (config, seed) to (summary, files, text): ``files`` maps
# each CSV name to the result whose ``to_csv`` writes it, in write order, and
# ``text`` is what the run prints.  Only ``main`` writes.


def cmd_emission_pattern(config, seed):
    geometry = _geometry_from_config(config)
    na = float(geometry.aperture(config["numerical_aperture"]))
    spectrum = dipole.emission_pattern(geometry, **config["pattern"])
    eta = dipole.direct_collection_efficiency(geometry, na, spectrum.total_power)
    summary = {
        "collection_efficiency": eta,
        "numerical_aperture": na,
        "total_power": spectrum.total_power,
        "guided_power": spectrum.guided_power,
        "radiated_power": spectrum.radiated_power(),
    }
    return summary, {"emission_pattern.csv": spectrum}, f"eta(NA={na:g}) = {100.0 * eta:.4f}%"


def _sweep_keys(config):
    """The keys of the sweep study a config names, the bottom one by default."""
    study = config.setdefault("study", "bottom")
    if not isinstance(study, str) or study not in _SWEEP_STUDIES:
        raise InvalidInput(f"study must be 'bottom' or 'top', got {study!r}")
    return {"study": None, **_SWEEP_STUDIES[study]}


def cmd_cavity_sweep(config, seed):
    keys = {k: config[k] for k in _SWEEP_STUDIES[config["study"]]}
    if config["study"] == "top":
        res = optimize_top_mirror(**keys)
        summary = {
            "argmax_top_periods": res.best_parameter,
            "best_efficiency": res.best_efficiency,
        }
        text = (
            f"argmax top periods = {res.best_parameter}, "
            f"eta = {100.0 * res.best_efficiency:.4f}%"
        )
        return summary, {f"{TOP_MIRROR_PRESET}.csv": res}, text
    summary, files, lines = {}, {}, []
    for na, res in sweep_bottom_mirror(**keys).items():
        files[f"{FIG5_PRESET}_NA{na:g}.csv"] = res
        summary[f"NA={na:g}"] = {
            "argmax_periods": res.best_parameter,
            "best_efficiency": res.best_efficiency,
            "asymptote_efficiency": res.efficiencies[-1],
        }
        lines.append(
            f"NA={na:g}: argmax N={res.best_parameter}, "
            f"eta={100.0 * res.best_efficiency:.4f}%"
        )
    return summary, files, "\n".join(lines)


def _check_work(events, key, value):
    """Reject expected events above ``_MAX_SOURCE_EVENTS``."""
    if events > _MAX_SOURCE_EVENTS:
        raise InvalidInput(
            f"{key} {value:g} asks for about {events:.2g} events (photons, pulses, "
            f"segment passes, dark counts), more than the cap of {_MAX_SOURCE_EVENTS:.0e}"
        )


def _qd_source(config):
    model = qd.QDModel(**config["model"])
    drive = qd.DriveProgram(**config["drive"])
    # a capture precedes every X and X2 photon; markers come while shelved
    injecting, passes = drive.duration, 0.0
    if drive.mode == qd.MODE_PULSED:
        periods = drive.duration / drive.period
        injecting = periods * drive.pulse_width * 1e-3
        passes = periods * len(qd._rate_table(model, drive))
    events = model.capture_rate * injecting + model.marker_rate * drive.duration + passes
    _check_work(events, "drive.duration", drive.duration)
    sample = partial(qd.simulate, model, drive)
    if drive.mode == qd.MODE_PULSED:
        return sample, drive.duration, drive.repetition_rate, drive
    return sample, drive.duration, None, None


def _poisson_dc_source(config):
    p = config["poisson"]
    # numbers for the work estimate; the source checks their ranges
    rate, duration = (number(p[k], f"poisson.{k}") for k in ("rate_per_ns", "duration"))
    _check_work(rate * duration, "poisson.duration", duration)
    return partial(qd.poisson_photon_record, rate, duration), duration, None, None


def _poisson_pulsed_source(config):
    p = config["poisson"]
    args = [number(p[k], f"poisson.{k}")
            for k in ("repetition_rate", "mean_photons_per_pulse", "duration")]
    pulses = args[0] * 1e-3 * args[2]  # one Poisson draw per pulse, then its photons
    _check_work(pulses * (1.0 + args[1]), "poisson.duration", args[2])
    return partial(qd.pulsed_poisson_record, *args), args[2], args[0], None


# Each photon source's builder and the config keys it reads beside the
# detection keys.  A builder checks the source and its work cap without
# sampling it and returns ``(sample, duration, repetition_rate, pulsed_drive)``:
# ``sample(seed)`` draws the ``EmissionRecord`` of ``duration`` ns, the rate
# (MHz) is None for a DC source, and the drive is a qd source's pulsed
# ``DriveProgram``, else None.
_SOURCES = {
    "qd": (_qd_source, {"model": _fields(qd.QDModel), "drive": _fields(qd.DriveProgram)}),
    "poisson_dc": (_poisson_dc_source, {"poisson": _leaves(("rate_per_ns", "duration"))}),
    "poisson_pulsed": (_poisson_pulsed_source, {"poisson": _leaves(
        ("repetition_rate", "mean_photons_per_pulse", "duration"))}),
}


def _source_keys(config):
    """The detection keys and those of the photon source a config names, qd by default.

    A ``qd`` source's drive keys depend on its mode, as the source keys depend
    on the source: a DC drive reads only ``_DC_DRIVE_KEYS``.
    """
    source = config.setdefault("source", "qd")
    if not isinstance(source, str) or source not in _SOURCES:
        raise InvalidInput(f"unknown source {source!r}; known sources: {', '.join(_SOURCES)}")
    keys = {**_DETECTION_KEYS, **_SOURCES[source][1]}
    drive = config.get("drive")
    if source == "qd" and isinstance(drive, dict) and drive.get("mode") == qd.MODE_DC:
        keys["drive"] = _DC_DRIVE_KEYS
    return keys


def _noise_ratio(config, dark_rate):
    """The noise/signal ratio the config sets, or None; checked before sampling.

    Noise is given one way at most: as this ratio, as the g2(0) it gives, or
    as a nonzero ``detectors.dark_rate``.
    """
    given = [k for k in ("noise_to_signal_ratio", "target_g2_zero") if config.get(k) is not None]
    if dark_rate:
        given.append("detectors.dark_rate")
    if len(given) > 1:
        raise InvalidInput(f"noise is given twice: by {given[0]} and by {given[1]}")
    target = config.get("target_g2_zero")
    if target is None:
        ratio = config.get("noise_to_signal_ratio")
        return None if ratio is None else number(ratio, "noise_to_signal_ratio", low=0.0)
    number(target, "target_g2_zero", low=0.0, below=1.0)
    # invert g2 = (2x + x^2) / (1 + x)^2 for the noise/signal ratio x
    return 1.0 / np.sqrt(1.0 - target) - 1.0


def _check_lines(key, lines):
    """Each of ``lines`` must be one of ``qd.LINES``, or None for every line."""
    for line in lines:
        if line is not None and line not in qd.LINES:
            raise InvalidInput(
                f"{key}: unknown emission line {line!r}; known lines: {', '.join(qd.LINES)}"
            )


def _correlated(config, seed, sample, duration, key, lines, profile=None):
    """Check, sample, detect ``lines`` on arms A and B, and correlate: hbt's and
    cross-corr's chain.

    Before ``sample(seed)`` draws the record, it checks the ``lines`` (config
    key ``key``), the detector pair, a given dark rate's counts over the
    source's ``duration`` ns, the noise and the correlation bins.  A
    noise/signal ratio sets the dark rate from the signal rate on
    ``line_filter``, its counts checked against the cap before any is drawn.
    Then ``profile(record)``, if given, reads what else the run needs of the
    record (hbt's decay profile), and the record is handed to
    ``cross_correlate_lines`` with no reference kept here, so it can be freed
    before ``correlate`` runs.  Returns ``(decay, histogram, rates)``:
    ``decay`` is ``profile``'s result (None without one), and ``rates`` holds
    the signal rate, the noise rate (both 1/ns) and any noise/signal ratio set.
    """
    _check_lines(key, lines)
    detectors = hbt.DetectorPair(**config["detectors"])
    dark_counts = detectors.dark_rate * duration / 1e9
    _check_work(dark_counts, "detectors.dark_rate", detectors.dark_rate)
    ratio = _noise_ratio(config, detectors.dark_rate)
    corr_cfg = config["correlation"]
    hbt._correlation_edges(corr_cfg["window"], corr_cfg["bin_width"])
    # the record's only reference, popped into the call that detects it: passed
    # as a plain argument (not through *lines, whose tuple would hold it), it
    # lives in cross_correlate_lines' frame alone on CPython >= 3.11
    records = [sample(seed)]
    signal = np.count_nonzero(records[0].mask(config.get("line_filter")))
    signal_per_ns = signal / records[0].duration
    if ratio is not None:
        key = "noise_to_signal_ratio" if config.get("target_g2_zero") is None else "target_g2_zero"
        _check_work(ratio * signal, key, config[key])
        detectors = replace(detectors, dark_rate=ratio * signal_per_ns * 1e9)
    decay = None if profile is None else profile(records[0])
    hist = hbt.cross_correlate_lines(
        records.pop(), lines[0], lines[1], detectors, seed + 1,
        corr_cfg["window"], corr_cfg["bin_width"],
    )
    rates = {
        "signal_rate_per_ns": signal_per_ns,
        "noise_rate_per_ns": 2.0 * detectors.noise_rate_per_arm,
    }
    if ratio is not None:
        rates["noise_to_signal_ratio"] = ratio
    return decay, hist, rates


def cmd_hbt(config, seed):
    sample, duration, repetition_rate, drive = _SOURCES[config["source"]][0](config)
    analysis = config["analysis"]
    profile = None  # what reads the decay profile, before detection
    if "m_far" in analysis:
        if repetition_rate is None:
            raise InvalidInput(
                "analysis.m_far needs a pulsed source: peak areas are read at its repetition rate"
            )
        corr_cfg = config["correlation"]
        edges = hbt._correlation_edges(corr_cfg["window"], corr_cfg["bin_width"])
        hbt._peak_reach(edges, repetition_rate, analysis["m_far"])
    if "decay_fit" in analysis:
        if drive is None:
            raise InvalidInput("analysis.decay_fit needs a qd source with a pulsed drive")
        fit_cfg = analysis["decay_fit"]
        _check_lines("analysis.decay_fit.line", (fit_cfg["line"],))
        edges = qd._decay_edges(drive, fit_cfg["bin_ps"])
        t_start, t_stop = (
            number(fit_cfg[k], f"analysis.decay_fit.{k}") for k in ("t_start", "t_stop")
        )
        # the bins decay_profile will fill; a reversed window holds none
        centers = 0.5 * (edges[1:] + edges[:-1])
        if np.count_nonzero((centers >= t_start) & (centers <= t_stop)) < qd._FIT_BINS:
            raise InvalidInput(
                f"analysis.decay_fit needs t_start < t_stop around at least {qd._FIT_BINS} "
                f"decay-bin centres, got t_start={t_start!r}, t_stop={t_stop!r}"
            )
        profile = partial(qd.decay_profile, drive=drive, line=fit_cfg["line"],
                          bin_ps=fit_cfg["bin_ps"])
    line = config.get("line_filter")
    decay, hist, rates = _correlated(
        config, seed, sample, duration, "line_filter", (line, line), profile
    )
    files = {"histogram.csv": hist}
    summary = {
        "n_clicks_a": int(hist.n_a),
        "n_clicks_b": int(hist.n_b),
        **rates,
        "g2_zero_measured": hist.g2_zero(),
    }
    text = f"g2(0) measured = {summary['g2_zero_measured']:.4f}"
    # Eq. (1) is the law of a single emitter, which only a qd source is
    if config["source"] == "qd":
        summary["g2_zero_eq1_prediction"] = hbt.g2_zero_closed_form(
            rates["signal_rate_per_ns"], rates["noise_rate_per_ns"]
        )
        text += f", Eq.(1) prediction = {summary['g2_zero_eq1_prediction']:.4f}"
    if "m_far" in analysis:
        areas = hbt.peak_area_analysis(hist, repetition_rate, m_far=analysis["m_far"])
        files["peak_areas.csv"] = areas
        summary["peak_area_zero"] = areas.area(0)
        summary["peak_area_one"] = areas.area(1)
    if "decay_fit" in analysis:
        summary["fitted_decay_ns"] = qd.fit_decay_time(*decay, t_start, t_stop)
    return summary, files, text


def cmd_cross_corr(config, seed):
    lines = config.get("lines")
    if not (isinstance(lines, list) and len(lines) == 2):
        raise InvalidInput("config needs 'lines': [start_line, stop_line]")
    sample, duration, _, _ = _SOURCES[config["source"]][0](config)
    _, hist, _ = _correlated(config, seed, sample, duration, "lines", lines)
    g2, n = hist.g2(), hist.counts.size
    # the halves either side of tau = 0; the centred bin of an odd n is in neither
    summary = {
        "lines": list(lines),
        "n_clicks_a": int(hist.n_a),
        "n_clicks_b": int(hist.n_b),
        "g2_max_positive_tau": float(np.max(g2[(n + 1) // 2:])),
        "g2_min_negative_tau": float(np.min(g2[:n // 2])),
        "g2_zero": hist.g2_zero(),
    }
    text = f"cross-correlation {lines[0]} -> {lines[1]}: g2(0) = {summary['g2_zero']:.4f}"
    return summary, {"histogram.csv": hist}, text


def cmd_throughput(config, seed):
    factors = {k: config["factors"][k] for k in _THROUGHPUT_FACTORS}
    ratio = qd.throughput_ratio(**factors)
    text = (
        f"collection x{factors['collection_gain']:g} * rate x{factors['rate_gain']:g} * "
        f"QE x{factors['qe_factor']:g} = {ratio:g}"
    )
    return {**factors, "throughput_ratio": ratio}, {}, text


# Each command's handler and the config keys it reads, by nesting level, with
# the defaults that fill what a config leaves out: a dict marks a block, filled
# even when left out unless ``_Optional``; None a value with no default; any
# other value a value's default, taken from the dataclass or function the block
# feeds where there is one.  A function in place of the keys reads them off the
# config.
_COMMANDS = {
    "emission-pattern": (
        cmd_emission_pattern,
        {
            "homogeneous": _Optional(refractive_index=1.0),
            "design": _Optional(_fields(CavityDesign)),
            "pattern": _keywords(dipole.emission_pattern),
            "numerical_aperture": 0.5,
        },
    ),
    "cavity-sweep": (cmd_cavity_sweep, _sweep_keys),
    "hbt": (
        cmd_hbt,
        lambda config: {**_source_keys(config), "analysis": _ANALYSIS_KEYS},
    ),
    "cross-corr": (cmd_cross_corr, lambda config: {**_source_keys(config), "lines": None}),
    "throughput": (cmd_throughput, {"factors": _leaves(_THROUGHPUT_FACTORS)}),
}


def _build_parser():
    """One parser for every command: the command and the four options that all
    commands share, in any order."""
    parser = argparse.ArgumentParser(
        prog="speds",
        description="Planar-microcavity single-photon-diode simulator",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help=f"one of: {', '.join(available_presets())}")
    parser.add_argument("--seed", type=int, help="override the config's seed")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


class _Block(dict):
    """A resolved config block that names a missing key by its dotted path.
    It is copied key by key, and the first key, at any nesting level, that the
    command does not read (``known``) is rejected, as is a block that is not
    a JSON object.  Then each key left out is filled from ``known``."""

    def __init__(self, items, known, path=""):
        super().__init__()
        self.path = path
        for key, value in items.items():
            if key not in known:
                raise InvalidInput(f"unknown config key {path}{key}")
            sub = known[key]
            if isinstance(sub, dict) and not isinstance(value, dict):
                raise InvalidInput(f"config key {path}{key} must be a JSON object, got {value!r}")
            self[key] = _Block(value, sub, f"{path}{key}.") if isinstance(sub, dict) else value
        for key, sub in known.items():
            if key not in self and sub is not None and not isinstance(sub, _Optional):
                self[key] = _Block({}, sub, f"{path}{key}.") if isinstance(sub, dict) else sub

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


def _load_config(args):
    """The resolved config of a run: every key the command reads, defaults filled in."""
    if args.config is None and args.preset is None:
        raise InvalidInput("provide --preset and/or --config")
    config = {}
    if args.preset is not None:
        config = load_preset(args.preset)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInput(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise InvalidInput(
                f"config {args.config} must hold a JSON object, "
                f"not a {type(overrides).__name__}"
            )
        config = _merged(config, overrides)
    if args.seed is not None:
        config["seed"] = args.seed  # so the config holds the seed that runs
    declared = config.get("command")
    if declared is not None and declared != args.command:
        raise InvalidInput(
            f"config is for command {declared!r}, invoked as {args.command!r}"
        )
    keys = _COMMANDS[args.command][1]
    if callable(keys):
        keys = keys(config)
    return _Block(config, {"command": None, "seed": 0, **keys})


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        seed = number(config["seed"], "seed", low=0, integer=True)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot create output directory: {exc}") from exc
        summary, files, text = _COMMANDS[args.command][0](config, seed)
        written = []  # the paths this run has started to write, in order
        try:
            for name, result in files.items():
                written.append(os.path.join(args.out, name))
                result.to_csv(written[-1])
            summary["outputs"] = list(files)
            written.append(os.path.join(args.out, "summary.json"))
            with open(written[-1], "w") as fh:
                fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            for path in written[:-1]:  # all but the write that failed
                os.remove(path)
            raise InvalidInput(f"cannot write output: {exc}") from exc
        print(text)
        return 0
    except (InvalidInput, UnsupportedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
