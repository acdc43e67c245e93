import numpy as np
import pytest

from speds import designer
from speds.designer import (
    CavityDesign,
    SweepResult,
    fig5_design,
    geometry_for,
    optimize_top_mirror,
    sweep_bottom_mirror,
    sweep_csv_name,
    top_mirror_design,
    write_sweep_csvs,
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


class TestSweeps:
    def test_bottom_sweep_requires_twelve_periods(self):
        with pytest.raises(InvalidInput):
            sweep_bottom_mirror(5, [0.5])

    @pytest.mark.parametrize(
        "max_periods,nas,key",
        [(12.5, [0.5], "max_periods"), (12, [], "numerical_apertures"),
         (12, [0.5, 1.5], "numerical aperture")],
    )
    def test_bottom_sweep_rejects_bad_inputs_before_any_design(
        self, monkeypatch, max_periods, nas, key
    ):
        def never(*args, **kwargs):
            raise AssertionError("a design was evaluated")

        monkeypatch.setattr(designer, "direct_collection_efficiency", never)
        with pytest.raises(InvalidInput, match=key):
            sweep_bottom_mirror(max_periods, nas)

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
        paths = write_sweep_csvs(tmp_path, "top_mirror_geometry", res)
        assert len(paths) == 1
        with open(paths[0]) as fh:
            text = fh.read()
        assert text.splitlines()[0] == "periods,efficiency"
        assert "1,2.00000000e-02" in text

    def test_per_na_names(self):
        assert sweep_csv_name("fig5_geometry", 0.5) == "fig5_geometry_NA0.5.csv"
