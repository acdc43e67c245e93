import hashlib
import inspect
import json
import math
import sys
import time
import weakref
from dataclasses import MISSING, fields
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speds import cli, dipole, hbt, multilayer, presets, qd
from speds.designer import CavityDesign, optimize_top_mirror, sweep_bottom_mirror
from speds.errors import InvalidInput, NumericalFailure
from speds.presets import available_presets, load_preset


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def no_sampling(monkeypatch):
    """Make every photon source raise, so a run that samples one fails the test."""

    def never(*args, **kwargs):
        raise AssertionError("the source was sampled")

    for name in ("simulate", "poisson_photon_record", "pulsed_poisson_record"):
        monkeypatch.setattr(cli.qd, name, never)


def poisson_dc_config(**poisson):
    return {
        "command": "hbt",
        "source": "poisson_dc",
        "poisson": {"rate_per_ns": 0.1, "duration": 1e4, **poisson},
        "correlation": {"window": 10.0, "bin_width": 0.1},
    }


def small_hbt_config():
    return {
        "source": "qd",
        "model": {"capture_rate": 0.5, "shelve_probability": 0.0},
        "drive": {"mode": "DC", "duration": 5e4},
        "line_filter": "X",
        "correlation": {"window": 2.5, "bin_width": 0.05},
        "seed": 5,
    }


class TestPresets:
    def test_known_presets_available(self):
        names = available_presets()
        for expected in ("fig6a_no_cavity", "fig6b_cavity", "dc_eq1", "ghz_ideal",
                         "fig10_shelving", "throughput_ghz"):
            assert expected in names

    def test_unknown_preset_rejected(self, tmp_path):
        # only a bundled name: a path to any other file, JSON or not, is no preset
        (tmp_path / "not_json.json").write_text("{")
        for name in ("does_not_exist", "../presets/dc_eq1", str(tmp_path / "not_json")):
            with pytest.raises(InvalidInput, match="unknown preset"):
                load_preset(name)

    def test_presets_declare_their_command(self):
        for name in available_presets():
            assert "command" in load_preset(name)

    def test_a_run_lists_the_preset_directory_once(self, monkeypatch, tmp_path):
        # for the --preset help text; load_preset opens the name's file directly
        calls = []

        def listed():
            calls.append(1)
            return available_presets()

        monkeypatch.setattr(presets, "available_presets", listed)
        monkeypatch.setattr(cli, "available_presets", listed)
        assert cli.main(["throughput", "--preset", "throughput_ghz", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestUsage:
    """One parser for every command: a positional command and four shared options."""

    @pytest.mark.parametrize("argv", [[], ["no-such-command"]], ids=["none", "unknown"])
    def test_missing_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: speds")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_exits_0_and_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for word in ("--config", "--preset", "--seed", "--out", *cli._COMMANDS):
            assert word in text

    def test_options_parse_before_or_after_the_command(self, tmp_path, capsys):
        flags = ["--preset", "throughput_ghz", "--seed", "7", "--out", str(tmp_path)]
        parsed = [
            vars(cli._build_parser().parse_args(argv))
            for argv in (["throughput", *flags], [*flags, "throughput"],
                         [*flags[:2], "throughput", *flags[2:]])
        ]
        expected = {"command": "throughput", "config": None, "preset": "throughput_ghz",
                    "seed": 7, "out": str(tmp_path)}
        assert parsed == [expected] * 3
        assert cli.main([*flags, "throughput"]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["outputs"] == []
        assert capsys.readouterr().out.startswith("collection x")


class TestExitCodes:
    def test_missing_config_and_preset(self, capsys):
        assert cli.main(["throughput", "--out", "."]) == 2
        assert "preset" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        # a path, to a bundled preset or to a file that is not JSON, names no preset
        (tmp_path / "not_json.json").write_text("{")
        out = tmp_path / "out"
        for name in ("nope", "../presets/dc_eq1", str(tmp_path / "not_json")):
            rc = cli.main(["hbt", "--preset", name, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: unknown preset {name!r}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", ["nope", "", "../presets/dc_eq1", "presets/../dc_eq1", "/dc_eq1", "dc_eq1.json"]
    )
    def test_a_name_that_is_no_bundled_preset_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert cli.main(["hbt", "--preset", name, "--out", str(out)]) == 2
        listed = ", ".join(available_presets())
        assert capsys.readouterr().err == f"error: unknown preset {name!r}; available: {listed}\n"
        assert not out.exists()

    def test_command_mismatch_exits_2(self, tmp_path, capsys):
        rc = cli.main(["hbt", "--preset", "throughput_ghz", "--out", str(tmp_path)])
        assert rc == 2
        assert "throughput" in capsys.readouterr().err

    def test_invalid_drive_fails_fast(self, tmp_path, capsys):
        config = small_hbt_config()
        config["drive"] = {"mode": "pulsed", "repetition_rate": 80.0,
                           "pulse_width": 2e4, "duration": 1e6}
        path = write_config(tmp_path, config)
        start = time.perf_counter()
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert rc == 2
        assert elapsed < 0.1
        assert "pulse width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("drive", "duration", math.inf),
            ("drive", "duration", math.nan),
            ("drive", "repetition_rate", math.nan),
            ("model", "tau_x", math.nan),
            ("model", "tau_x2", math.nan),
            ("model", "tau_x", math.inf),
        ],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, block, key, value):
        config = small_hbt_config()
        if key == "repetition_rate":  # a pulse key, which only a pulsed drive reads
            config["drive"] = dict(config["drive"], mode="pulsed")
        config[block] = dict(config[block], **{key: value})
        path = write_config(tmp_path, config)  # json writes Infinity and NaN
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,preset,override",
        [
            ("hbt", "laser_80mhz", {"poisson": {"repetition_rate": 0.0}}),
            ("hbt", "laser_80mhz", {"poisson": {"repetition_rate": math.nan}}),
            ("hbt", "laser_80mhz", {"poisson": {"mean_photons_per_pulse": -0.3}}),
            ("hbt", "laser_80mhz", {"poisson": {"duration": math.inf}}),
            ("hbt", None, poisson_dc_config(rate_per_ns=math.nan)),
            ("hbt", None, poisson_dc_config(duration=math.inf)),
            ("hbt", "dc_eq1", {"detectors": 5e7}),
            ("hbt", "laser_80mhz", {"correlation": {"window": math.inf}}),
            ("hbt", "laser_80mhz", {"correlation": {"bin_width": math.nan}}),
            ("emission-pattern", "fig6b_cavity", {"pattern": {"angular_resolution": math.nan}}),
            ("emission-pattern", "fig6b_cavity", {"pattern": {"angular_resolution": 1e-9}}),
            ("emission-pattern", "fig6b_cavity", {"numerical_aperture": "x"}),
            ("cavity-sweep", "fig5_sweep", {"numerical_apertures": []}),
            ("cavity-sweep", "fig5_sweep", {"max_periods": 12.5}),
            ("cavity-sweep", "fig5_sweep", {"max_periods": 100000}),
            ("cavity-sweep", "top_mirror_study", {"max_top": 100000}),
            ("cavity-sweep", "top_mirror_study", {"max_top": 2.5}),
            ("cavity-sweep", "top_mirror_study", {"max_top": "3"}),
            ("cavity-sweep", "top_mirror_study", {"bottom_periods": True}),
            ("emission-pattern", "fig6b_cavity", {"design": {"bottom_periods": 100000}}),
            ("emission-pattern", "fig6b_cavity", {"homogeneous": {"refractive_index": 1.0}}),
            ("cavity-sweep", "fig5_sweep", {"numerical_apertures": [0.5, 0.5000001]}),
        ],
        ids=["rep-rate-0", "rep-rate-nan", "mean-negative", "pulsed-duration-inf",
             "dc-rate-nan", "dc-duration-inf", "detectors-not-a-block", "window-inf", "bin-width-nan", "resolution-nan",
             "resolution-tiny", "aperture-string", "no-apertures", "fractional-periods",
             "bottom-sweep-cap", "top-sweep-cap", "top-fractional", "top-string",
             "bottom-periods-bool", "design-periods-cap", "design-and-homogeneous",
             "apertures-alike"],
    )
    def test_bad_numbers_in_preset_blocks_exit_2(self, tmp_path, capsys, command, preset, override):
        path = write_config(tmp_path, override)
        on_preset = ["--preset", preset] if preset else []
        rc = cli.main([command, *on_preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "preset,override,key",
        [
            ("laser_80mhz", {"sede": 3}, "sede"),
            ("laser_80mhz", {"analysis": {"repetiton_rate": 80, "m_far": 10}},
             "analysis.repetiton_rate"),
            ("laser_80mhz", {"correlation": {"bin_widht": 0.5}}, "correlation.bin_widht"),
            ("laser_80mhz", {"poisson": {"jiter_ns": 0.1}}, "poisson.jiter_ns"),
            ("laser_80mhz", {"analysis": {"repetition_rate": 80.0}}, "analysis.repetition_rate"),
            ("laser_80mhz", {"model": {"tau_x": 5.0}, "drive": {"duration": 10.0}}, "model"),
            ("laser_80mhz", {"source": "poisson_dc"}, "poisson.mean_photons_per_pulse"),
            ("dc_eq1", {"drive": {"repetition_rate": -5.0, "pulse_width": 1e9}},
             "drive.repetition_rate"),
        ],
        ids=["top-level", "analysis", "correlation", "poisson", "analysis-repetition-rate",
             "qd-keys-on-poisson-source", "pulsed-keys-on-dc-source", "pulse-keys-on-dc"],
    )
    def test_unknown_config_key_exits_2_before_any_work(
        self, tmp_path, capsys, preset, override, key
    ):
        path = write_config(tmp_path, override)
        out = tmp_path / "out"
        rc = cli.main(["hbt", "--preset", preset, "--config", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,preset,override,key",
        [
            ("emission-pattern", "fig6b_cavity", {"design": {"numerical_aperture": 0.5}},
             "design.numerical_aperture"),
            ("emission-pattern", "homogeneous", {"homogeneous": {"vacuum_wavelength": 500.0}},
             "homogeneous.vacuum_wavelength"),
            ("throughput", "throughput_ghz", {"factors": {"rate_from_mhz": [1070.0, 80.0]}},
             "factors.rate_from_mhz"),
            ("hbt", "dc_eq1", {"detectors": {"background_rate": 5e7}},
             "detectors.background_rate"),
            ("hbt", "dc_eq1", {"detectors": {"splitter_ratio": 0.3}}, "detectors.splitter_ratio"),
            ("hbt", "ghz_ideal", {"poisson": {"rate_per_ns": 3.0}}, "poisson"),
            ("hbt", "laser_80mhz", {"poisson": {"jitter_ns": -1.0}}, "poisson.jitter_ns"),
        ],
        ids=["design-aperture", "homogeneous-wavelength", "rate-from-mhz", "background-rate",
             "splitter-ratio", "poisson-keys-on-qd-source", "jitter-ns"],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, command, preset, override, key):
        path = write_config(tmp_path, override)
        rc = cli.main([command, "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"

    @pytest.mark.parametrize(
        "preset,override,key",
        [
            ("dc_eq1", {"analysis": {"m_far": 10}}, "analysis.m_far"),
            ("laser_80mhz", {"analysis": {"decay_fit": {"t_start": 1.5, "t_stop": 9.0}}},
             "analysis.decay_fit"),
            ("dc_eq1", {"model": {"shelve_probability": 0.5},
                        "drive": {"sweep_out_regime": "full_reset"}}, "sweep_out_regime"),
            ("dc_eq1", {"drive": {"sweep_delay": 0.3}}, "sweep_delay"),
        ],
        ids=["peak-areas-on-dc", "decay-fit-on-poisson", "sweep-out-on-dc", "sweep-delay-on-dc"],
    )
    def test_analysis_without_a_pulsed_source_exits_2_before_sampling(
        self, tmp_path, capsys, no_sampling, preset, override, key
    ):
        path = write_config(tmp_path, override)
        rc = cli.main(["hbt", "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_too_many_correlation_bins_exit_2_before_sampling(
        self, tmp_path, capsys, no_sampling
    ):
        path = write_config(tmp_path, {"correlation": {"window": 1e9, "bin_width": 1.0}})
        out = tmp_path / "out"
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: correlation.bin_width ") and "more than the cap" in err
        assert not any(out.iterdir())

    def test_too_many_decay_bins_exit_2_before_sampling(self, tmp_path, capsys, no_sampling):
        path = write_config(tmp_path, {"analysis": {"decay_fit": {"bin_ps": 1e-30}}})
        rc = cli.main(["hbt", "--preset", "fig8_jitter", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,preset,config,key",
        [
            ("hbt", "fig10_shelving", {"analysis": {"m_far": "x"}}, "m_far"),
            ("hbt", "fig10_shelving", {"analysis": {"m_far": 100}}, "m_far=100"),
            ("hbt", "fig10_shelving", {"analysis": {"m_far": 2.5}}, "m_far"),
            ("hbt", "fig10_shelving", {"analysis": {"m_far": True}}, "m_far"),
            ("hbt", "laser_80mhz", {"correlation": {"window": 1000.0, "bin_width": 20.0}},
             "wider than the pulse period"),
            # 117 ns over 105 bins: 1.1143 ns, above the 1.1111 ns period, though 1.11 is not
            ("hbt", "laser_80mhz", {"poisson": {"repetition_rate": 900.0},
                                    "correlation": {"window": 58.5, "bin_width": 1.11}},
             "wider than the pulse period"),
            ("hbt", "fig8_jitter", {"analysis": {"decay_fit": {"line": "Y"}}},
             "analysis.decay_fit.line"),
            ("hbt", None, {key: value for key, value in load_preset("fig8_jitter").items()
                           if key != "analysis"} | {"analysis": {"decay_fit": {"t_stop": 9.0}}},
             "analysis.decay_fit.t_start"),
            ("hbt", "fig8_jitter", {"analysis": {"decay_fit": {"t_start": "a"}}}, "t_start"),
            ("hbt", "fig8_jitter", {"analysis": {"decay_fit": {"t_start": 9.0, "t_stop": 1.5}}},
             "t_start < t_stop"),
            # past the 12.5 ns period, and around one 50 ps bin: a fit needs 3 bins
            ("hbt", "fig8_jitter", {"analysis": {"decay_fit": {"t_start": 20.0, "t_stop": 30.0}}},
             "analysis.decay_fit"),
            ("hbt", "fig8_jitter", {"analysis": {"decay_fit": {"t_start": 1.5, "t_stop": 1.55}}},
             "analysis.decay_fit"),
            ("hbt", "fig10_shelving", {"detectors": {"efficiency": 2.0}}, "efficiency"),
            ("hbt", "fig10_shelving", {"detectors": {"timing_jitter_sigma": -1.0}},
             "timing_jitter_sigma"),
            ("hbt", "fig10_shelving", {"line_filter": "Y"}, "line_filter"),
            ("cross-corr", "cascade_x2_x", {"lines": ["X2", "Y"]}, "lines"),
        ],
        ids=["m-far-string", "m-far-beyond-the-window", "m-far-fraction", "m-far-bool",
             "bins-wider-than-the-period", "real-bins-wider-than-the-period", "decay-fit-line", "decay-fit-no-t-start",
             "decay-fit-t-start-string", "decay-fit-window-reversed",
             "decay-fit-window-past-the-period", "decay-fit-window-of-one-bin", "detector-efficiency",
             "detector-jitter", "line-filter", "cross-corr-lines"],
    )
    def test_analysis_detector_and_line_keys_exit_2_before_sampling(
        self, tmp_path, capsys, no_sampling, command, preset, config, key
    ):
        path = write_config(tmp_path, config)
        on_preset = ["--preset", preset] if preset else []
        out = tmp_path / "out"
        rc = cli.main([command, *on_preset, "--config", path, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "preset,config,key",
        [
            ("dc_eq1", {"drive": {"duration": 1e15}}, "drive.duration"),
            ("ghz_ideal", {"model": {"capture_rate": 0.0}, "drive": {"duration": 1e15}},
             "drive.duration"),
            ("laser_80mhz", {"poisson": {"duration": 1e300}}, "poisson.duration"),
            (None, poisson_dc_config(duration=1e15), "poisson.duration"),
        ],
        ids=["dc-duration", "zero-capture-pulsed-duration", "pulsed-poisson-duration",
             "dc-poisson-duration"],
    )
    def test_source_work_over_the_cap_exits_2_before_sampling(
        self, tmp_path, capsys, no_sampling, preset, config, key
    ):
        path = write_config(tmp_path, config)
        on_preset = ["--preset", preset] if preset else []
        rc = cli.main(["hbt", *on_preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "more than the cap" in err

    @pytest.mark.parametrize(
        "preset,override,key",
        [
            ("top_mirror_study", {"numerical_apertures": [0.3], "max_periods": 40},
             "unknown config key numerical_apertures"),
            ("fig5_sweep", {"max_top": 4}, "unknown config key max_top"),
            ("fig5_sweep", {"study": "side"}, "study must be"),
        ],
        ids=["bottom-keys-on-top-study", "top-keys-on-bottom-study", "unknown-study"],
    )
    def test_cavity_sweep_reads_only_its_study_keys(self, tmp_path, capsys, preset, override,
                                                    key):
        path = write_config(tmp_path, override)
        out = tmp_path / "out"
        rc = cli.main(["cavity-sweep", "--preset", preset, "--config", path, "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,override",
        [
            ("laser_80mhz", {"analysis": {"m_far": 20}}),
            # fig8_jitter emits no marker photons, so no bin of the profile is populated
            ("fig8_jitter", {"analysis": {"decay_fit": {"line": "marker"}}}),
        ],
        ids=["peak-areas-beyond-window", "empty-decay-fit-window"],
    )
    def test_failed_run_writes_no_file(self, tmp_path, preset, override):
        path = write_config(tmp_path, override)
        out = tmp_path / "out"
        rc = cli.main(["hbt", "--preset", preset, "--config", path, "--out", str(out)])
        assert rc == 2
        assert list(out.iterdir()) == []

    def test_throughput_product_that_overflows_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"factors": {"collection_gain": 1e300, "rate_gain": 1e300}})
        out = tmp_path / "out"
        rc = cli.main(["throughput", "--preset", "throughput_ghz", "--config", path,
                       "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: collection_gain * rate_gain * qe_factor must be a finite number > 0, "
            "got inf\n"
        )
        assert list(out.iterdir()) == []

    def test_bad_numerical_aperture_fails_fast(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the pattern was computed")

        monkeypatch.setattr(cli.dipole, "emission_pattern", never)
        path = write_config(tmp_path, {"numerical_aperture": 1.5})
        start = time.perf_counter()
        rc = cli.main(["emission-pattern", "--preset", "fig6b_cavity", "--config", path,
                       "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert rc == 2
        assert elapsed < 0.1
        assert capsys.readouterr().err == (
            "error: numerical_aperture must be a finite number > 0 and <= 1, got 1.5\n"
        )

    def test_huge_cavity_order_exits_2_before_any_stack(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a stack was evaluated")

        monkeypatch.setattr(cli.dipole, "stack_rt", never)
        monkeypatch.setattr(cli.dipole, "bragg_prefix_rt", never)
        path = write_config(tmp_path, {"design": {"cavity_order": 1e300}})
        rc = cli.main(["emission-pattern", "--preset", "fig6b_cavity", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cavity_order must be a finite number > 0 and <= 1000, got 1e+300\n"
        )

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, [1, 2])
        rc = cli.main(["throughput", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["throughput", "--preset", "throughput_ghz", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot create output directory")

    @pytest.mark.parametrize(
        "command,preset,blocked",
        [("hbt", "ghz_ideal", "peak_areas.csv"), ("throughput", "throughput_ghz", "summary.json")],
    )
    def test_output_that_cannot_be_written_exits_2_and_leaves_no_file(
        self, tmp_path, capsys, command, preset, blocked
    ):
        (tmp_path / blocked).mkdir()
        rc = cli.main([command, "--preset", preset, "--out", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write output: ") and blocked in err, err
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    def test_missing_key_named_by_dotted_path(self, tmp_path, capsys):
        config = poisson_dc_config()
        del config["poisson"]["rate_per_ns"]
        path = write_config(tmp_path, config)
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: missing config key poisson.rate_per_ns\n"

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailure("quadrature did not converge")

        monkeypatch.setattr(cli.qd, "simulate", boom)
        path = write_config(tmp_path, small_hbt_config())
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize(
        "command,preset,override,keys",
        [
            ("hbt", "dc_eq1", {"target_g2_zero": 0.11},
             ("noise_to_signal_ratio", "target_g2_zero")),
            ("hbt", "dc_eq1", {"detectors": {"dark_rate": 5e7}},
             ("noise_to_signal_ratio", "detectors.dark_rate")),
            ("hbt", "dc_g2_011", {"detectors": {"dark_rate": 5e7}},
             ("target_g2_zero", "detectors.dark_rate")),
            ("cross-corr", "cascade_x2_x",
             {"noise_to_signal_ratio": 0.5, "detectors": {"dark_rate": 1e6}},
             ("noise_to_signal_ratio", "detectors.dark_rate")),
            ("hbt", "dc_g2_011", {"target_g2_zero": 1.0}, ("target_g2_zero",)),
            ("hbt", "dc_eq1", {"noise_to_signal_ratio": -1.0}, ("noise_to_signal_ratio",)),
        ],
        ids=["ratio-and-target", "ratio-and-dark-rate", "target-and-dark-rate",
             "cross-corr-ratio-and-dark-rate", "target-out-of-range", "ratio-negative"],
    )
    def test_noise_given_twice_exits_2_before_sampling(
        self, tmp_path, capsys, no_sampling, command, preset, override, keys
    ):
        path = write_config(tmp_path, override)
        rc = cli.main([command, "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err

    def test_zero_dark_rate_beside_a_noise_ratio_is_legal(self):
        assert cli._noise_ratio(load_preset("dc_eq1"), 0.0) == 1.0

    def test_cross_corr_needs_two_lines(self, tmp_path):
        config = small_hbt_config()
        config["lines"] = ["X"]
        path = write_config(tmp_path, config)
        rc = cli.main(["cross-corr", "--config", path, "--out", str(tmp_path)])
        assert rc == 2


    @pytest.mark.parametrize("seed", [-1, [], True, 2.5, "7"], ids=repr)
    def test_bad_seed_exits_2_before_any_work(self, tmp_path, capsys, no_sampling, seed):
        path = write_config(tmp_path, {"seed": seed})
        out = tmp_path / "out"
        rc = cli.main(["hbt", "--preset", "dc_eq1", "--config", path, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: seed must be an integer >= 0, got {seed!r}\n"
        )
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, no_sampling):
        rc = cli.main(["hbt", "--preset", "dc_eq1", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"

    def test_unreadable_config_exits_2_naming_the_file(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes('{"seed": 1, "note": "\u00e9"}'.encode("latin-1"))
        too_deep = tmp_path / "deep.json"
        too_deep.write_text("[" * 100_000 + "]" * 100_000)
        for path in (tmp_path, not_utf8, tmp_path / "missing.json", too_deep):
            rc = cli.main(["hbt", "--preset", "dc_eq1", "--config", str(path),
                           "--out", str(tmp_path / "out")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")

    @pytest.mark.parametrize(
        "preset,override,key",
        [
            ("fig10_full_reset", {"detectors": {"dark_rate": 1e300}}, "detectors.dark_rate"),
            ("dc_eq1", {"noise_to_signal_ratio": None, "detectors": {"dark_rate": 1e18}},
             "detectors.dark_rate"),
        ],
        ids=["fig10-dark-rate", "dc-dark-rate"],
    )
    def test_dark_counts_over_the_cap_exit_2_before_sampling(
        self, tmp_path, capsys, no_sampling, preset, override, key
    ):
        path = write_config(tmp_path, override)
        rc = cli.main(["hbt", "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "more than the cap" in err, err

    def test_dark_counts_from_a_ratio_over_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the clicks were drawn")

        monkeypatch.setattr(cli.hbt, "cross_correlate_lines", never)
        path = write_config(tmp_path, {"noise_to_signal_ratio": 1e300})
        rc = cli.main(["hbt", "--preset", "dc_eq1", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise_to_signal_ratio 1e+300 ") and "more than the cap" in err

    @pytest.mark.parametrize("preset", ["dc_eq1", "dc_g2_011", "cascade_x2_x",
                                        "exclusion_x_marker"])
    def test_x_that_never_decays_under_dc_exits_2(self, tmp_path, capsys, preset):
        path = write_config(tmp_path, {"model": {"tau_x": 1e300}})
        command = load_preset(preset)["command"]
        rc = cli.main([command, "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: tau_x is too long beside capture_rate: X decays only after about "
            "capture_rate * tau_x X2 photons, more than the cap of 1000\n"
        )

    @pytest.mark.parametrize(
        "preset,override,message",
        [
            ("homogeneous", {"homogeneous": {"refractive_index": 1e300}},
             "refractive_index must be a finite number > 0 and <= 100, got 1e+300"),
            ("homogeneous", {"homogeneous": {"refractive_index": 1e-300}},
             "numerical_aperture must be a finite number > 0 and <= 1e-300, got 0.5"),
            ("fig6b_cavity", {"pattern": {"include_guided_spike": math.inf}},
             "include_guided_spike must be true or false, got inf"),
            ("fig6b_cavity", {"pattern": {"include_guided_spike": "x"}},
             "include_guided_spike must be true or false, got 'x'"),
            ("fig6a_no_cavity", {"pattern": {"include_guided_spike": 1}},
             "include_guided_spike must be true or false, got 1"),
            # a grid of 0.35 or 0.49 degree bins stops short of 180 degrees
            ("homogeneous", {"pattern": {"angular_resolution": 0.35}},
             "angular_resolution must divide 180 degrees into whole bins, got 0.35"),
            ("fig6b_cavity", {"pattern": {"angular_resolution": 0.49}},
             "angular_resolution must divide 180 degrees into whole bins, got 0.49"),
        ],
        ids=["index-huge", "index-below-the-aperture", "spike-inf", "spike-string",
             "spike-one", "resolution-0.35", "resolution-0.49"],
    )
    def test_bad_optics_inputs_exit_2_before_the_pattern(
        self, tmp_path, capsys, monkeypatch, preset, override, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("the pattern was computed")

        monkeypatch.setattr(cli.dipole._CavityFields, "total_power", never)
        path = write_config(tmp_path, override)
        rc = cli.main(["emission-pattern", "--preset", preset, "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def json_kind(value):
    """A config value's JSON type, ints and floats both being numbers."""
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


FUZZ_VALUES = (0, -1, math.nan, math.inf, -math.inf, 1e300, 1e-300, "x", [], {}, True)


def leaf_values(block, path=()):
    """{key path: value} of a config's values, nested blocks walked."""
    values = {}
    for key, value in block.items():
        if isinstance(value, dict):
            values.update(leaf_values(value, path + (key,)))
        else:
            values[path + (key,)] = value
    return values


def under(block, values):
    """``values`` keyed by their key paths inside ``block``."""
    return {(*block, key): value for key, value in values.items()}


def field_defaults(cls):
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def keyword_defaults(fn):
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


# The default of each key path a command's config may leave out, read where
# it is declared: a dataclass field, a keyword parameter, or the CLI's own.
SOURCE_DEFAULTS = {
    ("seed",): 0,
    ("source",): "qd",
    **under(("model",), field_defaults(qd.QDModel)),
    **under(("drive",), field_defaults(qd.DriveProgram)),
    **under(("detectors",), field_defaults(hbt.DetectorPair)),
}
DECLARED_DEFAULTS = {
    "emission-pattern": {
        ("seed",): 0,
        ("numerical_aperture",): 0.5,
        ("homogeneous", "refractive_index"): 1.0,
        **under(("design",), field_defaults(CavityDesign)),
        **under(("pattern",), keyword_defaults(dipole.emission_pattern)),
    },
    "cavity-sweep": {
        ("seed",): 0,
        ("study",): "bottom",
        **under((), keyword_defaults(sweep_bottom_mirror)),
        **under((), keyword_defaults(optimize_top_mirror)),
    },
    "hbt": {
        **SOURCE_DEFAULTS,
        **under(("analysis", "decay_fit"), keyword_defaults(qd.decay_profile)),
    },
    "cross-corr": SOURCE_DEFAULTS,
    "throughput": {("seed",): 0},
}


def resolve(command, *flags):
    return cli._load_config(cli._build_parser().parse_args([command, *flags]))


class TestConfigContract:
    @pytest.mark.parametrize("preset", available_presets())
    def test_one_bad_leaf_exits_0_2_or_3(self, tmp_path, capsys, preset):
        """Any one leaf of a preset set to a bad value ends in exit 0, 2 or 3,
        with no exception out of main; a value of the wrong JSON type exits 2
        naming its key."""
        config = load_preset(preset)
        runs = count()
        leaves = [path for path in leaf_values(config) if path != ("command",)]

        @settings(derandomize=True, max_examples=15, deadline=None, database=None)
        @given(st.sampled_from(leaves), st.sampled_from(FUZZ_VALUES))
        def run(path, value):
            block = override = {}
            for key in path[:-1]:
                block = block.setdefault(key, {})
            block[path[-1]] = value
            original = config
            for key in path:
                original = original[key]
            run_dir = tmp_path / str(next(runs))
            rc = cli.main([config["command"], "--preset", preset,
                           "--config", write_config(tmp_path, override),
                           "--out", str(run_dir)])
            err = capsys.readouterr().err
            assert rc in (0, 2, 3), err
            if json_kind(value) != json_kind(original):
                assert rc == 2 and path[-1] in err, (path, value, err)

        run()


class TestConfigMerge:
    def test_config_block_merges_into_preset_block(self, tmp_path):
        # at 40 MHz the far peaks |m| >= 10 need a window of at least 262.5 ns
        path = write_config(tmp_path, {"poisson": {"repetition_rate": 40.0},
                                       "correlation": {"window": 320.0}})
        args = cli._build_parser().parse_args(
            ["hbt", "--preset", "laser_80mhz", "--config", path])
        config = cli._load_config(args)
        assert config["poisson"] == dict(load_preset("laser_80mhz")["poisson"],
                                         repetition_rate=40.0)
        assert config["correlation"] == dict(load_preset("laser_80mhz")["correlation"],
                                             window=320.0)
        assert config["analysis"] == load_preset("laser_80mhz")["analysis"]
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("name", available_presets())
    def test_preset_keys_are_all_known(self, name):
        # every preset value passes through as it is; each value added is a default
        preset = leaf_values(load_preset(name))
        resolved = leaf_values(resolve(preset[("command",)], "--preset", name))
        assert {path: resolved[path] for path in preset} == preset
        declared = DECLARED_DEFAULTS[preset[("command",)]]
        added = {path: value for path, value in resolved.items() if path not in preset}
        assert added == {path: declared[path] for path in added}


class TestResolvedConfig:
    @pytest.mark.parametrize(
        "command,config,unread",
        [
            ("emission-pattern", {"homogeneous": {}}, [("design",)]),
            ("emission-pattern", {"design": {"bottom_periods": 20}}, [("homogeneous",)]),
            ("cavity-sweep", {}, [("bottom_periods",), ("max_top",), ("numerical_aperture",)]),
            ("cavity-sweep", {"study": "top"}, [("max_periods",), ("numerical_apertures",)]),
            ("hbt", {"analysis": {"decay_fit": {}}}, []),
            ("hbt", {"drive": {"mode": "DC"}},
             [("analysis",), ("drive", "repetition_rate"), ("drive", "pulse_width"),
              ("drive", "sweep_out_regime"), ("drive", "sweep_delay")]),
            ("cross-corr", {}, []),
            ("throughput", {}, []),
        ],
        ids=["homogeneous", "design", "bottom-study", "top-study", "qd-decay-fit", "dc-drive",
             "cross-corr", "throughput"],
    )
    def test_each_filled_default_equals_its_declaration(self, tmp_path, command, config, unread):
        # every default the command reads is filled in, as it is declared, and no other
        resolved = leaf_values(resolve(command, "--config", write_config(tmp_path, config)))
        given = leaf_values(config)
        filled = {path: value for path, value in resolved.items() if path not in given}
        assert filled == {
            path: value for path, value in DECLARED_DEFAULTS[command].items()
            if path not in given and not any(path[:len(u)] == u for u in unread)
        }

    def test_seed_flag_is_written_into_the_config(self):
        assert resolve("hbt", "--preset", "dc_eq1", "--seed", "99")["seed"] == 99

    @pytest.mark.parametrize("name", available_presets())
    def test_resolved_config_resolves_to_itself(self, tmp_path, name):
        # JSON holds a tuple default as a list, so both sides pass through it
        resolved = resolve(load_preset(name)["command"], "--preset", name)
        path = write_config(tmp_path, resolved)
        again = resolve(resolved["command"], "--config", path)
        assert json.loads(json.dumps(again)) == json.loads(json.dumps(resolved))

    @pytest.mark.parametrize(
        "name",
        ["exclusion_x_marker", "fig5_sweep", "fig6a_no_cavity", "fig6b_cavity",
         "fig8_full_reset", "fig8_jitter", "homogeneous", "laser_80mhz", "throughput_ghz",
         "top_mirror_study"],
    )
    def test_resolved_config_writes_the_preset_bytes(self, tmp_path, capsys, name):
        command = load_preset(name)["command"]
        path = write_config(tmp_path, resolve(command, "--preset", name))
        runs = {"preset": ["--preset", name], "resolved": ["--config", path]}
        printed = {}
        for run, flags in runs.items():
            assert cli.main([command, *flags, "--out", str(tmp_path / run)]) == 0
            printed[run] = capsys.readouterr().out
        assert printed["resolved"] == printed["preset"]
        written = sorted(p.name for p in (tmp_path / "preset").iterdir())
        assert sorted(p.name for p in (tmp_path / "resolved").iterdir()) == written
        for file in written:
            assert ((tmp_path / "resolved" / file).read_bytes()
                    == (tmp_path / "preset" / file).read_bytes())


class TestRuns:
    def test_throughput_preset(self, tmp_path, capsys):
        rc = cli.main(["throughput", "--preset", "throughput_ghz", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["throughput_ratio"] == pytest.approx(67.0, abs=0.5)
        assert summary["outputs"] == []
        assert "= 67" in capsys.readouterr().out

    def test_homogeneous_emission_pattern(self, tmp_path, capsys):
        path = write_config(tmp_path, {"homogeneous": {"refractive_index": 1.0}})
        rc = cli.main(["emission-pattern", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_power"] == pytest.approx(1.0, abs=1e-4)
        assert (tmp_path / "emission_pattern.csv").exists()
        assert "eta(NA=0.5)" in capsys.readouterr().out

    @pytest.mark.parametrize("preset", ["fig6a_no_cavity", "fig6b_cavity"])
    def test_radiated_and_guided_power_add_up_to_total(self, tmp_path, preset):
        # fig6b folds its guided power into the pattern; radiated_power leaves it out
        assert cli.main(["emission-pattern", "--preset", preset, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["radiated_power"] + summary["guided_power"] == pytest.approx(
            summary["total_power"], rel=1e-12
        )
        assert summary["guided_power"] > 0.0

    # sha256 of each optics preset's table: a change to the transfer-matrix
    # product order that moves a printed digit must update these and say so
    # in CHANGES.md
    @pytest.mark.parametrize(
        "command,preset,table,digest",
        [
            ("emission-pattern", "fig6a_no_cavity", "emission_pattern.csv",
             "3faa037734d70503939b64262595295bf195645f5b53acd2e0da02abe757ad94"),
            ("emission-pattern", "fig6b_cavity", "emission_pattern.csv",
             "54635cf27503bf061fe60e904285db8c202b03557e807f279bde5ee64fe57b8c"),
            ("emission-pattern", "homogeneous", "emission_pattern.csv",
             "10c8d78e8cf7fc61cb7a17dbe8660303aef187e833acdb047f3107ca5082a8e3"),
            ("cavity-sweep", "fig5_sweep", "fig5_geometry_NA0.5.csv",
             "d10716bd39265e6210f746eb918854349cf41c6c755f8aa104c6bd34b7bb2137"),
            ("cavity-sweep", "top_mirror_study", "top_mirror_geometry.csv",
             "42ad92299aaebfb22f1e48f1599a9e78a8241b14c0a3e8851dffc2aed8aed150"),
        ],
        ids=["fig6a_no_cavity", "fig6b_cavity", "homogeneous", "fig5_sweep", "top_mirror_study"],
    )
    def test_optics_presets_keep_their_table_bytes(self, tmp_path, command, preset, table,
                                                   digest):
        assert cli.main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / table).read_bytes()).hexdigest() == digest

    # sha256 of each optics preset's summary.json: its floats print every
    # digit, so a change to the quadrature or the transfer-matrix product
    # order that moves any last digit must update these and say so in CHANGES.md
    @pytest.mark.parametrize(
        "command,preset,digest",
        [
            ("emission-pattern", "fig6a_no_cavity",
             "71b209c53ddbb3409d880ed10e0ce0c47c00720a96b62f22897e7d2c097abd83"),
            ("emission-pattern", "fig6b_cavity",
             "2ec1cf94acf57edb23b020a2c08f0344319b25f74c418126620a0cf37ab32691"),
            ("emission-pattern", "homogeneous",
             "29d358ed91ffa2fe2dc1eba3d2c1350a2e9ae460b0fd56870af411369f4e37ad"),
            ("cavity-sweep", "fig5_sweep",
             "36c7e653cc40e8f74b39cc797fd020c1908b4cd0da9ce25f8f3ee0edb50eaa7d"),
            ("cavity-sweep", "top_mirror_study",
             "069ff1f8f447bc7073536410a1ec86572a710e63c19974eb3d4bbe5e8d7c4bd0"),
        ],
        ids=["fig6a_no_cavity", "fig6b_cavity", "homogeneous", "fig5_sweep", "top_mirror_study"],
    )
    def test_optics_presets_keep_their_summary_bytes(self, tmp_path, command, preset, digest):
        assert cli.main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == digest

    @pytest.mark.parametrize(
        "command,preset",
        [("emission-pattern", "fig6b_cavity"), ("cavity-sweep", "top_mirror_study")],
        ids=["fig6b_cavity", "top_mirror_study"],
    )
    def test_one_transfer_matrix_pass_per_mirror_per_node_set(
        self, tmp_path, monkeypatch, command, preset
    ):
        # each mirror's TE and TM (r, t) at one node set come from one pass
        passes = []
        closed_products = multilayer._closed_products

        def counted(*args, **kwargs):
            passes.append(args[0])
            return closed_products(*args, **kwargs)

        per_mirror = []
        amplitudes = dipole._CavityFields._amplitudes

        def one_mirror(fields, side, kpar, kz_host):
            before = len(passes)
            result = amplitudes(fields, side, kpar, kz_host)
            per_mirror.append(len(passes) - before)
            return result

        monkeypatch.setattr(multilayer, "_closed_products", counted)
        monkeypatch.setattr(dipole._CavityFields, "_amplitudes", one_mirror)
        assert cli.main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
        assert per_mirror and set(per_mirror) == {1}

    def test_100_by_100_top_study_peaks_at_14_top_periods(self, tmp_path):
        # the longest mirrors on both sides, whose resonances are the narrowest:
        # the exact escape density puts the best design at 14 top periods, and
        # the cone quadrature of design 53 converges only with Im n on the
        # mirror layers
        path = write_config(tmp_path, {"max_top": 100, "bottom_periods": 100})
        out = tmp_path / "out"
        rc = cli.main(["cavity-sweep", "--preset", "top_mirror_study", "--config", path,
                       "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["argmax_top_periods"] == 14

    # sha256 of each correlation preset's histogram at its own seed: a change
    # to the source's or the detectors' random stream, or to the pair count,
    # must update these and say so in CHANGES.md
    @pytest.mark.parametrize(
        "preset,digest",
        [
            ("cascade_x2_x", "83e16e802906fa00eae4cadfbd7592806865d2a027abf7a97ff4eb5e56bfd2d3"),
            ("dc_eq1", "9818a6117d62aa610b8d375907b6a7a1f6158f8bb5a6f285bb66ecc53d24e4dd"),
            ("dc_g2_011", "d0852e583eff9956c7535bd4baef5d7ca5c8140a664e75ad17005ffaa8c340a5"),
            ("exclusion_x_marker",
             "e7594a6439b19a72d3bd2b6e1e5e20bb638de246530eeb8a6665b8a06b583365"),
            ("fig10_full_reset",
             "eef7bdabd154b9f331b063f3f46a0a8ce903af0e8464338406ef070d7a00c67d"),
            ("fig10_shelving", "3e052c1da6b6fac0edfd20b5382f89b5b7f3f760a171aef10f848d7d1f1b934e"),
            ("fig8_full_reset", "f4d71323b4c5fd275ab8119fce27415d5daa2ea177f82e4cf25d3d6e73f4ef14"),
            ("fig8_jitter", "36f866aec99e4315b164d8e1b9765606bfc762e13233bbbed6871ea7ef9a6f63"),
            ("ghz_ideal", "d42df314ccb542423c0428ed5ac031dafa64d5e45329ed385bbb1cc52d8a877d"),
            ("laser_80mhz", "51c2d35434a94d9e0e1f5d8a658fba8aa5cb6b71f7cd245745c7c9229ac053c8"),
        ],
        ids=["cascade_x2_x", "dc_eq1", "dc_g2_011", "exclusion_x_marker", "fig10_full_reset",
             "fig10_shelving", "fig8_full_reset", "fig8_jitter", "ghz_ideal", "laser_80mhz"],
    )
    def test_correlation_presets_keep_their_histogram_bytes(self, tmp_path, preset, digest):
        command = load_preset(preset)["command"]
        assert cli.main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "histogram.csv").read_bytes()).hexdigest() == digest

    def test_hbt_writes_histogram_and_summary(self, tmp_path):
        path = write_config(tmp_path, small_hbt_config())
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 <= summary["g2_zero_measured"]
        assert summary["outputs"] == ["histogram.csv"]
        lines = (tmp_path / "histogram.csv").read_text().splitlines()
        assert lines[5] == "tau_ns,counts,g2_normalized"

    def test_hbt_peak_areas_output(self, tmp_path):
        config = {
            "source": "poisson_pulsed",
            "poisson": {"repetition_rate": 80.0, "mean_photons_per_pulse": 0.3,
                        "duration": 1e5},
            "correlation": {"window": 160.0, "bin_width": 1.0},
            "analysis": {"m_far": 10},
            "seed": 6,
        }
        path = write_config(tmp_path, config)
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "peak_areas.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["peak_area_one"] == pytest.approx(1.0, abs=0.2)
        assert summary["outputs"] == ["histogram.csv", "peak_areas.csv"]

    def test_poisson_dc_g2_is_flat(self, tmp_path):
        # uncorrelated photons: each bin counts Poisson about the accidental level, so g2
        # has standard error 1/sqrt(accidental); the worst of the 200 bins is 2.3 of them
        config = {"source": "poisson_dc", "poisson": {"rate_per_ns": 0.5, "duration": 2e5},
                  "correlation": {"window": 10.0, "bin_width": 0.1}, "seed": 7}
        rc = cli.main(["hbt", "--config", write_config(tmp_path, config),
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        table = np.loadtxt(tmp_path / "histogram.csv", delimiter=",", skiprows=6)
        assert table.shape == (200, 3)
        accidental = summary["n_clicks_a"] * summary["n_clicks_b"] * 0.1 / 2e5
        assert np.all(np.abs(table[:, 2] - 1.0) < 4.0 / np.sqrt(accidental))

    @pytest.mark.parametrize(
        "preset,config,eq1",
        [
            ("laser_80mhz", {}, False),
            (None, {**poisson_dc_config(rate_per_ns=0.5, duration=2e5), "seed": 7}, False),
            ("dc_eq1", {}, True),
        ],
        ids=["laser_80mhz", "poisson_dc", "dc_eq1"],
    )
    def test_eq1_prediction_only_for_a_qd_source(self, tmp_path, capsys, preset, config, eq1):
        # Eq. (1) is the g2(0) of a single emitter, not of a classical source
        args = ["hbt", "--config", write_config(tmp_path, config), "--out", str(tmp_path)]
        rc = cli.main(args if preset is None else [*args, "--preset", preset])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert ("g2_zero_eq1_prediction" in summary) == eq1
        assert ("Eq.(1) prediction" in capsys.readouterr().out) == eq1

    def test_decay_fit_defaults_to_the_x_line_in_50_ps_bins(self, tmp_path):
        # fig8_jitter sets the defaults, so dropping them changes nothing
        config = load_preset("fig8_jitter")
        for key in ("line", "bin_ps"):
            del config["analysis"]["decay_fit"][key]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc = cli.main(["hbt", "--config", write_config(tmp_path, config), "--out", str(out_a)])
        assert rc == 0
        assert cli.main(["hbt", "--preset", "fig8_jitter", "--out", str(out_b)]) == 0
        fitted = [json.loads((out / "summary.json").read_text())["fitted_decay_ns"]
                  for out in (out_a, out_b)]
        assert fitted[0] == fitted[1]

    def test_peak_areas_read_at_the_source_rate(self, tmp_path):
        # a 40 MHz source read at 80 MHz would leave every odd peak empty
        path = write_config(tmp_path, {"poisson": {"repetition_rate": 40.0},
                                       "correlation": {"window": 320.0}})
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["peak_area_one"] == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize(
        "config",
        [
            # the window ends on the edge of peak 11's window, so peak 10 just fits
            {"correlation": {"window": 131.25, "bin_width": 0.03}},
            # 112 ns over 101 bins: 1.1089 ns, within the 1.1111 ns period, though 1.1112 is not
            {"poisson": {"repetition_rate": 900.0},
             "correlation": {"window": 56.0, "bin_width": 1.1112222222222223}},
        ],
        ids=["window-on-a-peak-window-edge", "real-bins-fit-the-period"],
    )
    def test_peak_reach_is_checked_on_the_bins_correlate_lays_out(self, tmp_path, config):
        path = write_config(tmp_path, config)
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "peak_areas.csv").exists()

    def test_cross_corr_g2_zero_is_the_bin_below_zero(self, tmp_path):
        # 112 bins: bin 55 ends at 0 and sees no X just before its X2; bin 56 is bunched
        path = write_config(tmp_path, {"correlation": {"window": 1.4, "bin_width": 0.025}})
        rc = cli.main(["cross-corr", "--preset", "cascade_x2_x", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["g2_zero"] < 0.1

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, small_hbt_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["hbt", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["hbt", "--config", path, "--seed", "99",
                         "--out", str(out_b)]) == 0
        assert (out_a / "histogram.csv").read_bytes() != (out_b / "histogram.csv").read_bytes()


class TestRecordHandOff:
    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller's stack keeps a call's arguments until the call "
        "returns, so the record stays alive through correlate (same outputs)",
    )
    @pytest.mark.parametrize(
        "command,preset",
        [("hbt", "dc_eq1"), ("cross-corr", "cascade_x2_x"), ("hbt", "fig8_jitter")],
    )
    def test_the_record_is_freed_before_correlate(self, tmp_path, monkeypatch, command, preset):
        # fig8_jitter's decay fit reads the record too, before detection
        simulate, correlate = qd.simulate, hbt.correlate
        records, alive = [], []

        def sampled(*args, **kwargs):
            record = simulate(*args, **kwargs)
            records.append(weakref.ref(record))
            return record

        def correlated(*args, **kwargs):
            alive.append(records[0]() is not None)
            return correlate(*args, **kwargs)

        monkeypatch.setattr(qd, "simulate", sampled)
        monkeypatch.setattr(hbt, "correlate", correlated)
        assert cli.main([command, "--preset", preset, "--out", str(tmp_path)]) == 0
        assert len(records) == 1 and alive == [False]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        runs = [
            (["hbt", "--config", write_config(tmp_path, small_hbt_config())],
             ("histogram.csv", "summary.json")),
            (["emission-pattern", "--preset", "fig6b_cavity"],
             ("emission_pattern.csv", "summary.json")),
        ]
        for i, (args, outputs) in enumerate(runs):
            out_a, out_b = tmp_path / f"{i}a", tmp_path / f"{i}b"
            for out in (out_a, out_b):
                assert cli.main([*args, "--out", str(out)]) == 0
            for name in outputs:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
