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
        ],
        ids=["rep-rate-0", "rep-rate-nan", "jitter-negative", "mean-negative", "pulsed-duration-inf",
             "dc-rate-nan", "dc-duration-inf", "window-inf", "bin-width-nan", "resolution-nan"],
    )
    def test_bad_numbers_in_preset_blocks_exit_2(self, tmp_path, capsys, command, preset, override):
        # a --config block replaces the preset's block, so merge one key into it
        base = load_preset(preset)
        config = {key: dict(base.get(key, {}), **value) if isinstance(value, dict) else value
                  for key, value in override.items()}
        path = write_config(tmp_path, config)
        rc = cli.main([command, "--preset", preset, "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

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
            "analysis": {"repetition_rate": 80.0},
            "seed": 6,
        }
        path = write_config(tmp_path, config)
        rc = cli.main(["hbt", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "peak_areas.csv").exists()
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
