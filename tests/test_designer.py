import json

import numpy as np
import pytest

from speds import cli, designer
from speds.designer import (
    MAX_CAVITY_ORDER,
    MAX_MIRROR_PERIODS,
    CavityDesign,
    SweepResult,
    fig5_design,
    geometry_for,
    optimize_top_mirror,
    sweep_bottom_mirror,
    top_mirror_design,
)
from speds.dipole import direct_collection_efficiency
from speds.errors import InvalidInput
from speds.multilayer import DESIGN_WAVELENGTH_NM, N_GAAS

LAM = DESIGN_WAVELENGTH_NM


class TestCavityDesign:
    def test_geometry_distances_are_optical(self):
        geom = geometry_for(fig5_design(12))
        lam_med = LAM / N_GAAS
        assert geom.source.distance_to_upper_stack == pytest.approx(2.0 * lam_med)
        assert geom.source.distance_to_lower_stack == pytest.approx(1.0 * lam_med)
        assert geom.upper.exit_index == 1.0  # air above
        assert geom.lower.exit_index == N_GAAS  # substrate below
        assert len(geom.lower.layers) == 24  # 12 quarter-wave pairs

    def test_top_mirror_geometry(self):
        geom = geometry_for(top_mirror_design(4))
        assert len(geom.upper.layers) == 8
        assert geom.upper.exit_index == 1.0
        lam_med = LAM / N_GAAS
        assert geom.source.distance_to_upper_stack == pytest.approx(0.5 * lam_med)

    def test_zero_periods_equals_bare_surface(self):
        geom = geometry_for(fig5_design(0))
        assert geom.lower.layers == ()
        assert geom.upper.layers == ()

    def test_invalid_cavity_order_rejected(self):
        with pytest.raises(InvalidInput):
            CavityDesign(bottom_periods=12, cavity_order=0.7, dipole_depth_below_surface=0.3)

    def test_dipole_outside_cavity_rejected(self):
        with pytest.raises(InvalidInput):
            CavityDesign(bottom_periods=12, cavity_order=1.0, dipole_depth_below_surface=1.5)

    def test_negative_periods_rejected(self):
        with pytest.raises(InvalidInput):
            CavityDesign(bottom_periods=-1)

    @pytest.mark.parametrize("field", ["bottom_periods", "top_periods"])
    def test_mirror_period_cap(self, field):
        periods = {"bottom_periods": 12, field: MAX_MIRROR_PERIODS}
        CavityDesign(**periods)
        for bad in (MAX_MIRROR_PERIODS + 1, 12.5, True):
            with pytest.raises(InvalidInput, match=field):
                CavityDesign(**dict(periods, **{field: bad}))

    def test_cavity_order_cap(self):
        CavityDesign(bottom_periods=12, cavity_order=MAX_CAVITY_ORDER)
        for bad in (MAX_CAVITY_ORDER + 0.5, 1e300):
            with pytest.raises(InvalidInput, match="cavity_order"):
                CavityDesign(bottom_periods=12, cavity_order=bad)


@pytest.fixture
def no_design(monkeypatch):
    """Fail the test if a sweep builds or evaluates any design."""

    def never(*args, **kwargs):
        raise AssertionError("a design was built or evaluated")

    monkeypatch.setattr(designer, "geometry_for", never)
    monkeypatch.setattr(designer, "mirror_sweep_efficiencies", never)


class TestSweeps:
    def test_bottom_sweep_requires_twelve_periods(self):
        with pytest.raises(InvalidInput):
            sweep_bottom_mirror(5, [0.5])

    @pytest.mark.parametrize(
        "max_periods,nas,key",
        [(12.5, [0.5], "max_periods"), (12, [], "numerical_apertures"),
         (12, [0.5, 1.5], "numerical_apertures"), (MAX_MIRROR_PERIODS + 1, [0.5], "max_periods"),
         # apertures name their results by their :g forms
         (12, [0.5, 0.5], "numerical_apertures"), (12, [0.3, 0.5, 0.5000001], "numerical_apertures")],
    )
    def test_bottom_sweep_rejects_bad_inputs_before_any_design(
        self, no_design, max_periods, nas, key
    ):
        with pytest.raises(InvalidInput, match=key):
            sweep_bottom_mirror(max_periods, nas)

    @pytest.mark.parametrize(
        "bottom_periods,max_top,na,key",
        [(12, 2.5, 0.5, "max_top"), (12, "3", 0.5, "max_top"), (12, -1, 0.5, "max_top"),
         (12, MAX_MIRROR_PERIODS + 1, 0.5, "max_top"), (True, 10, 0.5, "bottom_periods"),
         (MAX_MIRROR_PERIODS + 1, 10, 0.5, "bottom_periods"), (12, 10, 1.5, "numerical_aperture")],
    )
    def test_top_study_rejects_bad_inputs_before_any_design(
        self, no_design, bottom_periods, max_top, na, key
    ):
        with pytest.raises(InvalidInput, match=key):
            optimize_top_mirror(bottom_periods, max_top, na)

    def test_bottom_sweep_equals_per_design_evaluation(self):
        nas = [0.3, 0.5]
        results = sweep_bottom_mirror(25, nas)
        assert list(results) == nas
        for na in nas:
            assert results[na].efficiencies == [
                direct_collection_efficiency(geometry_for(fig5_design(n)), na)
                for n in range(26)
            ]

    def test_top_study_equals_per_design_evaluation(self):
        res = optimize_top_mirror(12, 10)
        assert res.efficiencies == [
            direct_collection_efficiency(geometry_for(top_mirror_design(t, 12)), 0.5)
            for t in range(11)
        ]

    def test_bottom_sweep_values(self):
        results = sweep_bottom_mirror(12, [0.5])
        res = results[0.5]
        assert res.parameter_values == list(range(13))
        # N = 0 must equal the independent no-mirror evaluation
        eta0 = direct_collection_efficiency(geometry_for(fig5_design(0)), 0.5)
        assert res.efficiencies[0] == pytest.approx(eta0, rel=1e-9)
        assert res.efficiencies[12] > res.efficiencies[0]

    def test_top_mirror_study_shape(self):
        res = optimize_top_mirror(bottom_periods=12, max_top=2)
        assert res.parameter_values == [0, 1, 2]
        assert all(e > 0 for e in res.efficiencies)

    def test_argmax_prefers_cheaper_structure_on_ties(self):
        res = SweepResult([0, 1, 2], [0.1, 0.3, 0.3])
        assert res.best_parameter == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInput):
            SweepResult([0, 1], [0.1])


class TestCsv:
    def test_sweep_csv_write(self, tmp_path):
        res = SweepResult([0, 1], [0.01, 0.02])
        path = tmp_path / "sweep.csv"
        res.to_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "periods,efficiency"
        assert "1,2.00000000e-02" in text

    def test_sweep_csv_bytes_end_lines_in_crlf(self, tmp_path):
        path = tmp_path / "sweep.csv"
        SweepResult([0, 1, 12], [0.01, 0.02, 0.5]).to_csv(path)
        assert path.read_bytes() == (
            b"periods,efficiency\r\n0,1.00000000e-02\r\n1,2.00000000e-02\r\n"
            b"12,5.00000000e-01\r\n"
        )

    def test_cavity_sweep_writes_one_csv_per_aperture(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"numerical_apertures": [0.3, 0.5], "max_periods": 12}))
        out = tmp_path / "out"
        rc = cli.main(["cavity-sweep", "--preset", "fig5_sweep", "--config", str(config),
                       "--out", str(out)])
        assert rc == 0
        names = ["fig5_geometry_NA0.3.csv", "fig5_geometry_NA0.5.csv"]
        assert json.loads((out / "summary.json").read_text())["outputs"] == names
        for name in names:
            assert len((out / name).read_text().splitlines()) == 14  # header and N = 0..12
