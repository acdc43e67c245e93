import io

import numpy as np
import pytest

import oracles
from speds import dipole
from speds.designer import fig5_design, geometry_for
from speds.dipole import (
    AngularPowerSpectrum,
    DipoleSource,
    EmissionGeometry,
    _bin_edges_rad,
    _CavityFields,
    adaptive_integral,
    analytic_no_cavity_efficiency,
    direct_collection_efficiency,
    emission_pattern,
)
from speds.errors import InvalidInput, NumericalFailure, UnsupportedInput
from speds.multilayer import DESIGN_WAVELENGTH_NM, N_ALAS, N_GAAS, Layer, LayerStack

LAM = DESIGN_WAVELENGTH_NM


def homogeneous_geometry(n=1.0):
    half = LayerStack(n, (), n)
    return EmissionGeometry(half, half, DipoleSource(LAM, n, LAM, LAM))


def bare_surface_geometry(depth_wavelengths=2.0):
    """Dipole in semi-infinite GaAs below a bare GaAs/air surface."""
    d = depth_wavelengths * LAM / N_GAAS
    upper = LayerStack(N_GAAS, (), 1.0)
    lower = LayerStack(N_GAAS, (), N_GAAS)
    return EmissionGeometry(upper, lower, DipoleSource(LAM, N_GAAS, d, d))


class TestAdaptiveIntegral:
    def test_polynomial_exact(self):
        val = adaptive_integral(lambda x: 3.0 * x**2, 0.0, 2.0)
        assert val == pytest.approx(8.0, rel=1e-12)

    def test_oscillatory(self, monkeypatch):
        monkeypatch.setattr(dipole, "_REL_TOL", 1e-9)
        val = adaptive_integral(lambda x: np.sin(40.0 * x), 0.0, 1.0)
        expected = (1.0 - np.cos(40.0)) / 40.0
        assert val == pytest.approx(expected, rel=1e-8)

    def test_rows_stop_at_their_own_doubling(self):
        # sin(x) converges at the first doubling, sin(1000 x) three doublings
        # later; each row must equal its own scalar integral exactly
        a = np.array([1.0, 1000.0])
        both = adaptive_integral(lambda x: np.sin(a[:, None] * x), 0.0, 1.0)
        assert both.shape == (2,)
        for ai, val in zip(a, both):
            assert val == adaptive_integral(lambda x: np.sin(ai * x), 0.0, 1.0)

    def test_row_that_does_not_converge_fails(self):
        a = np.array([1.0, 1e6])
        with pytest.raises(NumericalFailure, match="design 1"):
            adaptive_integral(lambda x: np.sin(a[:, None] * x), 0.0, 1.0)

    def test_failure_reports_diagnostics(self, monkeypatch):
        monkeypatch.setattr(dipole, "_REL_TOL", 1e-12)
        monkeypatch.setattr(dipole, "_MAX_DOUBLINGS", 3)
        rng = np.random.default_rng(0)
        with pytest.raises(NumericalFailure, match="panels"):
            adaptive_integral(lambda x: rng.standard_normal(np.shape(x)), 0.0, 1.0)


class TestHomogeneous:
    def test_total_power_normalized(self):
        spec = emission_pattern(homogeneous_geometry(), angular_resolution=0.5)
        assert spec.total_power == pytest.approx(1.0, abs=1e-4)
        assert spec.guided_power == pytest.approx(0.0, abs=1e-4)

    def test_pattern_symmetric_and_sin_weighted(self):
        spec = emission_pattern(homogeneous_geometry(), angular_resolution=0.5)
        d = spec.power_density
        assert np.allclose(d, d[::-1], atol=1e-10)
        # in-plane dipole average: density proportional to sin(t)(1 + cos^2(t))
        th = np.radians(spec.theta_grid)
        expected = 0.375 * np.sin(th) * (1.0 + np.cos(th) ** 2)
        interior = slice(5, -5)
        assert np.allclose(d[interior], expected[interior], rtol=1e-3)

    def test_cone_power_matches_closed_form(self):
        # NA 0.5 in vacuum is the 30-degree cone; the total power is 1
        c = np.cos(np.radians(30.0))
        expected = 0.5 - 0.375 * c - 0.125 * c**3
        eta = direct_collection_efficiency(homogeneous_geometry(), 0.5)
        assert eta == pytest.approx(expected, rel=1e-3)


class TestBareSurface:
    def test_analytic_efficiency_value(self):
        # closed form: Fresnel transmission times in-plane dipole cone fraction
        eta = analytic_no_cavity_efficiency(3.5, 0.5)
        c = np.cos(np.arcsin(0.5 / 3.5))
        expected = (1.0 - (2.5 / 4.5) ** 2) * (0.5 - 0.375 * c - 0.125 * c**3)
        assert eta == pytest.approx(expected, rel=1e-12)
        assert 0.004 < eta < 0.006  # about half a percent

    def test_numeric_matches_analytic_within_ten_percent(self):
        geom = bare_surface_geometry()
        eta = direct_collection_efficiency(geom, 0.5)
        assert eta == pytest.approx(analytic_no_cavity_efficiency(3.5, 0.5), rel=0.10)

    def test_energy_closure(self):
        # at 180/361 degrees 90 degrees is a bin edge; at 0.25 a bin straddles it
        for resolution in (0.25, 180.0 / 361.0):
            spec = emission_pattern(bare_surface_geometry(), angular_resolution=resolution)
            assert spec.radiated_power() + spec.guided_power == pytest.approx(
                spec.total_power, rel=1e-6
            )

    def test_collection_efficiency_routes_match(self):
        geom = bare_surface_geometry()
        spec = emission_pattern(geom, angular_resolution=0.25)
        # the cone's share of each bin, from the piecewise-constant density
        edges = _bin_edges_rad(spec.theta_grid)
        overlap = np.clip(np.minimum(edges[1:], np.arcsin(0.5)) - edges[:-1], 0.0, None)
        eta_pattern = np.sum(spec.power_density * overlap) / spec.total_power
        eta_direct = direct_collection_efficiency(geom, 0.5)
        assert eta_pattern == pytest.approx(eta_direct, rel=0.02)


class TestGuidedSpike:
    def test_spike_folds_guided_power_into_pattern(self):
        # a high-reflectivity lower mirror traps real guided power
        geom = geometry_for(fig5_design(12))
        plain = emission_pattern(geom, angular_resolution=0.25)
        folded = emission_pattern(geom, angular_resolution=0.25, include_guided_spike=True)
        assert plain.guided_power > 0.05 * plain.total_power
        # the density integral holds the folded guided power; radiated_power does not
        widths = np.diff(_bin_edges_rad(folded.theta_grid))
        assert np.sum(folded.power_density * widths) == pytest.approx(
            folded.total_power, rel=1e-6
        )
        assert folded.radiated_power() == pytest.approx(plain.radiated_power(), rel=1e-12)
        i90 = np.argmin(np.abs(folded.theta_grid - 90.0))
        assert folded.power_density[i90] > plain.power_density[i90]


class TestPatternBins:
    def test_bin_straddling_90_degrees_sums_both_half_spaces(self, monkeypatch):
        geom = geometry_for(fig5_design(12))
        spec = emission_pattern(geom, angular_resolution=0.25)
        i90 = int(np.argmin(np.abs(spec.theta_grid - 90.0)))
        lo, hi = np.radians([89.875, 90.125])
        fields = _CavityFields(geom, None)
        monkeypatch.setattr(dipole, "_REL_TOL", 1e-12)
        top = adaptive_integral(lambda th: fields.escape_density(th, "top"), lo, 0.5 * np.pi)
        bottom = adaptive_integral(
            lambda th: fields.escape_density(np.pi - th, "bottom"), 0.5 * np.pi, hi
        )
        assert top > 0 and bottom > 0
        assert spec.power_density[i90] * (hi - lo) == pytest.approx(top + bottom, rel=1e-10)


class TestReciprocityOracle:
    """Self-checks of the plane-wave oracle behind criterion 3."""

    @staticmethod
    def cavity(periods):
        return oracles.dbr_cavity(periods, LAM, N_GAAS, N_ALAS, 1.0, 3.0, 1.0)

    @pytest.mark.parametrize("pol", ["TE", "TM"])
    @pytest.mark.parametrize("top", [1.0, N_GAAS])
    def test_flux_conserved(self, pol, top):
        indices, thicknesses, _, _ = self.cavity(12)
        indices[-1] = top
        kpar = N_GAAS * 2 * np.pi / LAM * np.sin(np.radians(np.linspace(0.0, 85.0, 69)))
        r, t = oracles.stack_flux(indices, thicknesses, LAM, kpar, pol)
        assert np.allclose(r + t, 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("periods", [1, 6, 12])
    @pytest.mark.parametrize("exit_index", [1.0, N_GAAS])
    def test_normal_incidence_matches_closed_form(self, periods, exit_index):
        indices = [N_GAAS] + [N_ALAS, N_GAAS] * periods + [exit_index]
        thicknesses = [LAM / (4 * N_ALAS), LAM / (4 * N_GAAS)] * periods
        expected = oracles.dbr_reflectance(N_GAAS, exit_index, N_ALAS, N_GAAS, periods)
        for pol in ("TE", "TM"):
            r, _ = oracles.stack_flux(indices, thicknesses, LAM, 0.0, pol)
            assert r[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("periods", [0, 12])
    def test_density_matches_escape_density(self, periods):
        # every real angle on a 0.025 degree grid, the GaAs/air critical angle
        # and the 12-period cavity's resonances included, against the oracle
        # given the program's stacks: Im n = _IM_REG on each mirror layer
        theta = np.radians(np.arange(2, 3599) * 0.025)
        indices, thicknesses, layer, z = self.cavity(periods)
        indices = np.asarray(indices, dtype=complex)
        indices[1:-2] += 1j * dipole._IM_REG
        oracle = oracles.downward_escape_density(theta, indices, thicknesses, layer, z, LAM)
        geometry = geometry_for(fig5_design(periods))
        src = geometry.source
        # the same cavity upside down radiates the same density into its top side
        flipped = EmissionGeometry(
            geometry.lower, geometry.upper,
            DipoleSource(LAM, src.host_index, src.distance_to_lower_stack,
                         src.distance_to_upper_stack),
        )
        for geom, side in ((geometry, "bottom"), (flipped, "top")):
            program = _CavityFields(geom, None).escape_density(theta, side)
            assert np.allclose(program, oracle, rtol=1e-9, atol=0.0), side


class TestSerialization:
    def test_folded_csv_bytes(self, tmp_path):
        spec = AngularPowerSpectrum([0.0, 90.0, 180.0], [0.5, 2.0, 0.25], 0.75, 3.0, True)
        path = tmp_path / "pattern.csv"
        spec.to_csv(path)
        assert path.read_bytes() == (
            b"# guided_power = 7.5000000000e-01\n# total_power = 3.0000000000e+00\n"
            b"# guided_in_pattern = 1\ntheta_deg,power_density\n"
            b"0.0000,5.0000000000e-01\n90.0000,2.0000000000e+00\n180.0000,2.5000000000e-01\n"
        )

    def test_to_csv_accepts_buffer(self):
        spec = emission_pattern(homogeneous_geometry(), angular_resolution=0.5)
        buf = io.StringIO()
        spec.to_csv(buf)
        assert buf.getvalue().startswith("# guided_power")


class TestValidation:
    def test_mismatched_host_rejected(self):
        upper = LayerStack(3.0, (), 1.0)
        lower = LayerStack(3.5, (), 3.5)
        with pytest.raises(InvalidInput):
            EmissionGeometry(upper, lower, DipoleSource(LAM, 3.5, 100.0, 100.0))

    def test_gain_medium_rejected(self):
        upper = LayerStack(3.5, (Layer(50.0, 2.0),), 1.0)
        object.__setattr__(upper.layers[0], "refractive_index", 2.0 - 0.5j)
        lower = LayerStack(3.5, (), 3.5)
        with pytest.raises(UnsupportedInput):
            EmissionGeometry(upper, lower, DipoleSource(LAM, 3.5, 100.0, 100.0))

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInput):
            DipoleSource(LAM, 3.5, -1.0, 100.0)

    def test_bad_numerical_aperture_rejected(self):
        with pytest.raises(InvalidInput):
            direct_collection_efficiency(homogeneous_geometry(), 1.5)

    def test_bad_resolution_rejected(self):
        with pytest.raises(InvalidInput):
            emission_pattern(homogeneous_geometry(), angular_resolution=2.0)

    @pytest.mark.parametrize("resolution", [0.35, 0.49, 0.26, 0.2501])
    def test_resolution_that_does_not_divide_180_rejected(self, resolution):
        with pytest.raises(InvalidInput, match="angular_resolution must divide 180 degrees"):
            emission_pattern(homogeneous_geometry(), angular_resolution=resolution)
