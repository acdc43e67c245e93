import numpy as np
import pytest
from numpy.lib import scimath

from oracles import dbr_reflectance, solve_stack, stack_flux
from speds.errors import InvalidInput
from speds.multilayer import (
    DESIGN_WAVELENGTH_NM,
    N_ALAS,
    N_GAAS,
    TE,
    TM,
    Layer,
    LayerStack,
    _interface_rt,
    bragg_prefix_rt,
    build_bragg,
    kz_normal,
    power_reflectance,
    power_transmittance,
    stack_rt,
)

LAM = DESIGN_WAVELENGTH_NM


def interface_rt(n1, n2, kpar=0.0, pol=TE):
    """(r, t) of the bare n1 -> n2 interface: a stack with no layers."""
    return stack_rt(LayerStack(n1, (), n2), LAM, kpar)[pol]


class TestFresnel:
    def test_normal_incidence_te(self):
        r, t = interface_rt(1.0, 1.5)
        assert r == pytest.approx((1.0 - 1.5) / (1.0 + 1.5))
        assert t == pytest.approx(2.0 / 2.5)

    def test_tm_sign_convention_at_normal_incidence(self):
        r_te, _ = interface_rt(3.5, 1.0, pol=TE)
        r_tm, _ = interface_rt(3.5, 1.0, pol=TM)
        assert r_tm == pytest.approx(-r_te)

    def test_brewster_angle_tm_zero(self):
        n1, n2 = 1.0, 1.5
        theta_b = np.arctan(n2 / n1)
        kpar = n1 * (2 * np.pi / LAM) * np.sin(theta_b)
        r, _ = interface_rt(n1, n2, kpar, TM)
        assert abs(r) < 1e-12

    def test_total_internal_reflection(self):
        k0 = 2 * np.pi / LAM
        kpar = 3.5 * k0 * np.sin(np.radians(30.0))  # past the 16.6 deg critical angle
        for pol in (TE, TM):
            r, _ = interface_rt(3.5, 1.0, kpar, pol)
            assert abs(r) == pytest.approx(1.0, abs=1e-12)

    def test_kz_branch(self):
        k0 = 2 * np.pi / LAM
        kz = kz_normal(1.0, k0, 2.0 * k0)  # evanescent
        assert kz.real == pytest.approx(0.0, abs=1e-12)
        assert kz.imag > 0

    @pytest.mark.parametrize("n", [1.0, N_GAAS, 3.5 + 0.4j, N_ALAS + 1e-6j])
    @pytest.mark.parametrize("kind", ["real", "contour"])
    def test_kz_is_the_principal_complex_root(self, n, kind):
        # the real k-parallel runs past n k0 for every n: evanescent points too
        kpar, k0 = TestBraggPrefix.KPAR[kind], TestBraggPrefix.K0
        expected = scimath.sqrt((n * k0) ** 2 - kpar.astype(complex) ** 2)
        assert np.array_equal(kz_normal(n, k0, kpar), expected)

    @pytest.mark.parametrize("pol", [TE, TM])
    @pytest.mark.parametrize("kind", ["real", "contour"])
    @pytest.mark.parametrize("n1,n2", [(N_GAAS, 1.0), (1.0, N_GAAS), (N_GAAS, N_ALAS + 1e-6j)])
    def test_bare_interface_is_the_interface_formula(self, n1, n2, kind, pol):
        kpar, k0 = TestBraggPrefix.KPAR[kind], TestBraggPrefix.K0
        r, t = stack_rt(LayerStack(n1, (), n2), LAM, kpar)[pol]
        kz1, kz2 = kz_normal(n1, k0, kpar), kz_normal(n2, k0, kpar)
        r_i, t_i = _interface_rt(complex(n1), complex(n2), kz1, kz2, pol)
        assert np.array_equal(r, r_i) and np.array_equal(t, t_i)

    @pytest.mark.parametrize("pol", [TE, TM])
    @pytest.mark.parametrize("kind", ["real", "contour"])
    def test_equal_media_give_no_reflection(self, kind, pol):
        kpar = TestBraggPrefix.KPAR[kind]
        r, t = stack_rt(LayerStack(N_GAAS, (), N_GAAS), LAM, kpar)[pol]
        for value, expected in ((r, 0.0), (t, 1.0)):
            assert value.shape == kpar.shape and value.dtype == complex
            assert np.all(value == expected)


class TestStack:
    def test_half_wave_layer_is_invisible(self):
        stack = LayerStack(1.0, (Layer(LAM / (2 * 2.0), 2.0),), 3.5)
        bare = LayerStack(1.0, (), 3.5)
        for pol in (TE, TM):
            assert power_reflectance(stack, LAM, 0.0, pol) == pytest.approx(
                power_reflectance(bare, LAM, 0.0, pol), abs=1e-12
            )

    def test_quarter_wave_layer_closed_form(self):
        n1, n2, n3 = 1.0, 2.0, 3.5
        stack = LayerStack(n1, (Layer(LAM / (4 * n2), n2),), n3)
        r, _ = stack_rt(stack, LAM, 0.0)[TE]
        expected = (n1 * n3 - n2**2) / (n1 * n3 + n2**2)
        assert abs(r) == pytest.approx(abs(expected), rel=1e-12)

    @pytest.mark.parametrize("pol", [TE, TM])
    def test_energy_conservation_oblique(self, pol):
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 3, entry_index=N_GAAS, exit_index=1.0)
        k0 = 2 * np.pi / LAM
        for angle in (0.0, 10.0, 16.0):  # inside the escape cone of the exit side
            kpar = N_GAAS * k0 * np.sin(np.radians(angle))
            total = power_reflectance(stack, LAM, kpar, pol) + power_transmittance(
                stack, LAM, kpar, pol
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("pol", [TE, TM])
    def test_equal_media_pass_grazing_light_unchanged(self, pol):
        # kz = 0 on both sides, where the interface formulas are 0/0
        kpar = 3.5 * 2 * np.pi / LAM
        r, t = stack_rt(LayerStack(3.5, (), 3.5), LAM, kpar)[pol]
        assert (r, t) == (0.0, 1.0)

    def test_reversed_stack_reflectance_matches(self):
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 4, entry_index=1.0, exit_index=N_GAAS)
        flipped = LayerStack(stack.exit_index, stack.layers[::-1], stack.entry_index)
        assert power_reflectance(stack, LAM, 0.0, TE) == pytest.approx(
            power_reflectance(flipped, LAM, 0.0, TE), rel=1e-12
        )


class TestBragg:
    @pytest.mark.parametrize("periods", [0, 1, 2, 5, 12, 20])
    def test_closed_form_reflectance(self, periods):
        stack = build_bragg(
            N_GAAS, N_ALAS, LAM, periods, entry_index=N_GAAS, exit_index=N_GAAS
        )
        expected = dbr_reflectance(N_GAAS, N_GAAS, N_ALAS, N_GAAS, periods)
        assert power_reflectance(stack, LAM, 0.0, TE) == pytest.approx(expected, abs=1e-12)

    def test_reflectance_nondecreasing_with_periods(self):
        rs = [
            power_reflectance(
                build_bragg(N_GAAS, N_ALAS, LAM, n, entry_index=N_GAAS, exit_index=N_GAAS),
                LAM,
                0.0,
                TE,
            )
            for n in range(13)
        ]
        assert all(b >= a for a, b in zip(rs, rs[1:]))

    def test_twelve_periods_highly_reflective(self):
        # index contrast 2.95/3.5 into a GaAs substrate: closed form gives 0.935
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 12, entry_index=N_GAAS, exit_index=N_GAAS)
        assert power_reflectance(stack, LAM, 0.0, TE) > 0.9

    def test_layer_thicknesses_are_quarter_wave(self):
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 1)
        low, high = stack.layers
        assert low.thickness == pytest.approx(LAM / (4 * N_ALAS))
        assert high.thickness == pytest.approx(LAM / (4 * N_GAAS))


class TestBraggPrefix:
    """One prefix pass gives every period count's (r, t), equal to stack_rt's."""

    K0 = 2.0 * np.pi / LAM
    # real k-parallel past the host light line, and the inner points of the
    # complex contour that the dipole's total-power integral takes
    T = np.linspace(0.0, 0.5 * np.pi, 302)[1:-1]
    KPAR = {
        "real": N_GAAS * K0 * np.linspace(0.0, 1.2, 300),
        "contour": N_GAAS * K0 * np.sin(T - 0.12j * np.sin(2.0 * T)),
    }

    @pytest.mark.parametrize("pol", [TE, TM])
    @pytest.mark.parametrize("kind", ["real", "contour"])
    @pytest.mark.parametrize("im_reg", [0.0, 1e-6])
    @pytest.mark.parametrize("exit_index,max_periods", [(N_GAAS, 25), (1.0, 10)],
                             ids=["bottom-gaas-exit", "top-air-exit"])
    def test_prefixes_equal_stack_rt(self, pol, kind, im_reg, exit_index, max_periods):
        def mirror(periods):
            return build_bragg(
                N_GAAS, N_ALAS, LAM, periods, entry_index=N_GAAS, exit_index=exit_index
            )

        kpar = self.KPAR[kind]
        r, t = bragg_prefix_rt(mirror(max_periods), LAM, kpar, im_reg)[pol]
        assert r.shape == t.shape == (max_periods + 1, kpar.size)
        for n in range(max_periods + 1):
            r_n, t_n = stack_rt(mirror(n), LAM, kpar, im_reg)[pol]
            assert np.array_equal(r[n], r_n) and np.array_equal(t[n], t_n)

    def test_odd_layer_count_rejected(self):
        stack = LayerStack(N_GAAS, (Layer(50.0, N_ALAS),), N_GAAS)
        with pytest.raises(InvalidInput, match="two layers a period"):
            bragg_prefix_rt(stack, LAM, 0.0, 0.0)


class TestNonPeriodicStacks:
    """``stack_rt`` and ``power_transmittance`` of stacks that repeat an index
    pair without its thickness, or a thickness with other indices, against the
    boundary-condition oracle: every step that shares only part of its
    (n1, n2, thickness) with another must still be built for its own."""

    STACKS = {
        # 2.0 -> 3.5 and 3.5 -> 2.0 each twice, every time into another thickness
        "pair-two-thicknesses": LayerStack(
            1.0, (Layer(120.0, 2.0), Layer(90.0, 3.5), Layer(200.0, 2.0),
                  Layer(150.0, 3.5), Layer(60.0, 2.0)), 1.5),
        # 100 nm of four media; 2.0 -> 3.5 and 1.5 -> 3.5 enter the same layer
        "thickness-two-indices": LayerStack(
            1.0, (Layer(100.0, 2.0), Layer(100.0, 3.5), Layer(100.0, 1.5),
                  Layer(100.0, 3.5)), 1.0),
        # an absorbing layer, twice, between equal spacers
        "absorbing": LayerStack(
            1.0, (Layer(80.0, 2.0), Layer(30.0, 3.5 + 0.4j), Layer(80.0, 2.0),
                  Layer(45.0, 3.5 + 0.4j)), N_GAAS),
        # 3 Bragg periods and a GaAs cap: repeated two-layer blocks, then an odd
        # last layer taken alone, into a GaAs exit
        "bragg-and-cap": LayerStack(
            1.0, build_bragg(N_GAAS, N_ALAS, LAM, 3).layers + (Layer(70.0, N_GAAS),), N_GAAS),
        # two-layer blocks with the same indices and first thickness, each with
        # its own second thickness
        "blocks-second-thickness": LayerStack(
            1.5, (Layer(100.0, 2.0), Layer(60.0, 1.5), Layer(100.0, 2.0),
                  Layer(140.0, 1.5)), 1.0),
    }
    # propagating in the entry (air) and exit media, 5 to 80 degrees in air
    KPAR = 2.0 * np.pi / LAM * np.sin(np.radians(np.linspace(5.0, 80.0, 16)))

    @staticmethod
    def oracle_medium(stack, im_reg=0.0):
        indices = [stack.entry_index]
        indices += [layer.refractive_index + 1j * im_reg for layer in stack.layers]
        thicknesses = [layer.thickness for layer in stack.layers]
        return indices + [stack.exit_index], thicknesses

    @pytest.mark.parametrize("pol", [TE, TM])
    @pytest.mark.parametrize("im_reg", [0.0, 1e-3])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_reflection_matches_oracle(self, name, im_reg, pol):
        stack = self.STACKS[name]
        r, _ = stack_rt(stack, LAM, self.KPAR, im_reg)[pol]
        _, down, _ = solve_stack(*self.oracle_medium(stack, im_reg), LAM, self.KPAR, pol)
        np.testing.assert_allclose(r, down[:, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pol", [TE, TM])
    @pytest.mark.parametrize("name", list(STACKS))
    def test_transmittance_matches_oracle(self, name, pol):
        stack = self.STACKS[name]
        _, expected = stack_flux(*self.oracle_medium(stack), LAM, self.KPAR, pol)
        np.testing.assert_allclose(
            power_transmittance(stack, LAM, self.KPAR, pol), expected, rtol=1e-12, atol=0
        )


class TestValidation:
    def test_negative_thickness_rejected(self):
        with pytest.raises(InvalidInput):
            Layer(-1.0, 3.5)

    def test_gain_layer_rejected(self):
        with pytest.raises(InvalidInput):
            Layer(10.0, 3.5 - 0.1j)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(InvalidInput):
            LayerStack(-1.0, (), 1.0)

    def test_bad_polarization_rejected(self):
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 1)
        for power in (power_reflectance, power_transmittance):
            for pol in ("te", "TEM"):
                with pytest.raises(InvalidInput, match="polarization"):
                    power(stack, LAM, 0.0, pol)

    @pytest.mark.parametrize("wavelength", [0.0, np.nan, np.inf, -LAM])
    def test_bad_wavelength_rejected(self, wavelength):
        stack = build_bragg(N_GAAS, N_ALAS, LAM, 1)
        for rt in (stack_rt, bragg_prefix_rt):
            with pytest.raises(InvalidInput, match="wavelength"):
                rt(stack, wavelength, 0.0, 0.0)

    def test_fractional_periods_rejected(self):
        with pytest.raises(InvalidInput):
            build_bragg(N_GAAS, N_ALAS, LAM, 2.5)
