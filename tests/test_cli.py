import json
import math
import time

import pytest

from speds import cli
from speds.errors import InvalidInput, NumericalFailure
from speds.presets import available_presets, load_preset


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidInput, match="unknown preset"):
            load_preset("does_not_exist")

    def test_presets_declare_their_command(self):
        for name in available_presets():
            assert "command" in load_preset(name)


class TestExitCodes:
    def test_missing_config_and_preset(self, capsys):
        assert cli.main(["throughput", "--out", "."]) == 2
        assert "preset" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path):
        rc = cli.main(["hbt", "--preset", "nope", "--out", str(tmp_path)])
        assert rc == 2

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
            ("hbt", "laser_80mhz", {"poisson": {"jitter_ns": -1.0}}),
            ("hbt", "laser_80mhz", {"poisson": {"mean_photons_per_pulse": -0.3}}),
            ("hbt", "laser_80mhz", {"poisson": {"duration": math.inf}}),
            ("hbt", "laser_80mhz", {"source": "poisson_dc",
                                    "poisson": {"rate_per_ns": math.nan, "duration": 1e4}}),
            ("hbt", "laser_80mhz", {"source": "poisson_dc",
                                    "poisson": {"rate_per_ns": 0.1, "duration": math.inf}}),
            ("hbt", "laser_80mhz", {"correlation": {"window": math.inf}}),
            ("hbt", "laser_80mhz", {"correlation": {"bin_width": math.nan}}),
            ("emission-pattern", "fig6b_cavity", {"pattern": {"angular_resolution": math.nan}}),
            ("cavity-sweep", "fig5_sweep", {"numerical_apertures": []}),
            ("cavity-sweep", "fig5_sweep", {"max_periods": 12.5}),
        ],
        ids=["rep-rate-0", "rep-rate-nan", "jitter-negative", "mean-negative", "pulsed-duration-inf",
             "dc-rate-nan", "dc-duration-inf", "window-inf", "bin-width-nan", "resolution-nan",
             "no-apertures", "fractional-periods"],
    )
    def test_bad_numbers_in_preset_blocks_exit_2(self, tmp_path, capsys, command, preset, override):
        path = write_config(tmp_path, override)
        rc = cli.main([command, "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "override,key",
        [
            ({"sede": 3}, "sede"),
            ({"analysis": {"repetiton_rate": 80, "m_far": 10}}, "analysis.repetiton_rate"),
            ({"correlation": {"bin_widht": 0.5}}, "correlation.bin_widht"),
            ({"poisson": {"jiter_ns": 0.1}}, "poisson.jiter_ns"),
            ({"analysis": {"repetition_rate": 80.0}}, "analysis.repetition_rate"),
        ],
        ids=["top-level", "analysis", "correlation", "poisson", "analysis-repetition-rate"],
    )
    def test_unknown_config_key_exits_2_before_any_work(self, tmp_path, capsys, override, key):
        path = write_config(tmp_path, override)
        out = tmp_path / "out"
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path, "--out", str(out)])
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
        ],
        ids=["design-aperture", "homogeneous-wavelength", "rate-from-mhz"],
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
        ],
        ids=["peak-areas-on-dc", "decay-fit-on-poisson"],
    )
    def test_analysis_without_a_pulsed_source_exits_2_before_sampling(
        self, tmp_path, capsys, monkeypatch, preset, override, key
    ):
        def never(*args, **kwargs):
            raise AssertionError("the source was sampled")

        for name in ("simulate", "poisson_photon_record", "pulsed_poisson_record"):
            monkeypatch.setattr(cli.qd, name, never)
        path = write_config(tmp_path, override)
        rc = cli.main(["hbt", "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err

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
        assert "numerical aperture" in capsys.readouterr().err

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

    def test_missing_key_named_by_dotted_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"source": "poisson_dc"})
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: missing config key poisson.rate_per_ns\n"

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailure("quadrature did not converge")

        monkeypatch.setattr(cli.qd, "simulate", boom)
        path = write_config(tmp_path, small_hbt_config())
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 3

    def test_cross_corr_needs_two_lines(self, tmp_path):
        config = small_hbt_config()
        config["lines"] = ["X"]
        path = write_config(tmp_path, config)
        rc = cli.main(["cross-corr", "--config", path, "--out", str(tmp_path)])
        assert rc == 2


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
        command = load_preset(name)["command"]
        args = cli._build_parser().parse_args([command, "--preset", name])
        assert cli._load_config(args) == load_preset(name)


class TestRuns:
    def test_throughput_preset(self, tmp_path, capsys):
        rc = cli.main(["throughput", "--preset", "throughput_ghz", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["throughput_ratio"] == pytest.approx(67.0, abs=0.5)
        assert "= 67" in capsys.readouterr().out

    def test_homogeneous_emission_pattern(self, tmp_path, capsys):
        path = write_config(tmp_path, {"homogeneous": {"refractive_index": 1.0}})
        rc = cli.main(["emission-pattern", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_power"] == pytest.approx(1.0, abs=1e-4)
        assert (tmp_path / "emission_pattern.csv").exists()
        assert "eta(NA=0.5)" in capsys.readouterr().out

    def test_hbt_writes_histogram_and_summary(self, tmp_path):
        path = write_config(tmp_path, small_hbt_config())
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 <= summary["g2_zero_measured"]
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

    def test_peak_areas_read_at_the_source_rate(self, tmp_path):
        # a 40 MHz source read at 80 MHz would leave every odd peak empty
        path = write_config(tmp_path, {"poisson": {"repetition_rate": 40.0},
                                       "correlation": {"window": 320.0}})
        rc = cli.main(["hbt", "--preset", "laser_80mhz", "--config", path,
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["peak_area_one"] == pytest.approx(1.0, abs=0.2)

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, small_hbt_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["hbt", "--config", path, "--out", str(out_a)]) == 0
        assert cli.main(["hbt", "--config", path, "--seed", "99",
                         "--out", str(out_b)]) == 0
        assert (out_a / "histogram.csv").read_bytes() != (out_b / "histogram.csv").read_bytes()


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
