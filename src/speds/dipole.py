"""Far-field emission and collection efficiency of an in-plane dipole in a
planar layer structure.

The solver expands the dipole field in plane waves over the in-plane
wavevector.  For each k-parallel the upward/downward source amplitudes (TE
symmetric, TM antisymmetric for a horizontal dipole) are combined with the
mirror responses of the upper and lower stacks and the two-mirror resonance
denominator.  Propagating components map to far-field polar angles in the two
half-spaces; the total dissipated power is an integral over all k-parallel up
to the host light line, evaluated on a contour deformed into the complex
plane so that guided-mode poles (which sit on or just above the real axis)
are captured without chasing needle-thin resonances numerically.

All powers are normalized to the power of the same dipole in an unbounded
host medium.  Results are averaged over two orthogonal in-plane dipole
orientations.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._table import write_table
from .errors import InvalidInput, NumericalFailure, UnsupportedInput, number
from .multilayer import TE, TM, LayerStack, _check_index, bragg_prefix_rt, stack_rt

# Imaginary part of every finite layer index: the modeled stacks are slightly
# lossy (Im n = 1e-6), and every mirror response, on the contour and at real
# escape angles alike, is that of these stacks.  On the contour it damps the
# guided-mode poles on the real k-parallel axis: without it, the total power
# of design 43 of the 100 x 100 top-mirror study does not converge.  At real
# angles it keeps the lossless resonances of 100-period designs wide enough for
# the cone quadrature, which without it does not converge for 53 or 100 top
# periods over 100 bottom periods.
_IM_REG = 1e-6
# Depth h of the complex contour chi = t - i h sin(2t) of the total-power integral.
_CONTOUR_DEPTH = 0.12
# Gauss-Legendre order within each emission-pattern bin.
_BIN_ORDER = 12
# adaptive_integral: Gauss-Legendre order per panel, panels at first, panel
# doublings at most, and the relative change between doublings that converges.
_PANEL_ORDER = 24
_MIN_PANELS = 8
_MAX_DOUBLINGS = 8
_REL_TOL = 1e-6
# Finest emission-pattern bin, in degrees: at most 18,001 bins over 0-180 degrees.
_MIN_RESOLUTION_DEG = 0.01

_gauss_nodes = cache(np.polynomial.legendre.leggauss)


def _panel_integrals(f, edges, order):
    """Gauss-Legendre integral of ``f`` over each panel [edges[i], edges[i+1]],
    from one vectorized call of ``f``.

    ``f`` maps a 1-d array of nodes to the values there, or to one row of
    values per design; the result has a panel axis last.
    """
    x, w = _gauss_nodes(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel())
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    return np.sum(vals * w, axis=-1) * half


def adaptive_integral(f, a, b):
    """Composite Gauss-Legendre with panel doubling until converged.

    If ``f`` returns one row per design (designs x nodes), every design is
    integrated on the same panels and stops at its own first converged
    doubling, so each result equals the integral of that row alone.
    """

    def integrate(panels):
        per_panel = _panel_integrals(f, np.linspace(a, b, panels + 1), _PANEL_ORDER)
        return np.atleast_2d(per_panel).sum(axis=-1), per_panel.ndim > 1

    panels = _MIN_PANELS
    prev, batched = integrate(panels)
    result = np.empty_like(prev)
    open_ = np.ones(prev.shape, dtype=bool)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur, _ = integrate(panels)
        scale = np.maximum(np.abs(cur), 1e-12)
        change = np.abs(cur - prev)
        done = open_ & (change <= _REL_TOL * scale)
        result[done] = cur[done]
        open_ &= ~done
        if not open_.any():
            return result if batched else result[0]
        prev = cur
    i = int(np.argmax(open_))
    raise NumericalFailure(
        f"k-parallel quadrature did not converge on [{a}, {b}]: "
        f"{panels} panels, last change {change[i]:.3e} vs "
        f"tolerance {_REL_TOL:.1e} * {scale[i]:.3e}"
        + (f" (design {i})" if batched else "")
    )


def _bin_edges_rad(theta_deg):
    """Edges of the bins around each grid angle: the midpoints between
    neighbours, closed by the grid's end points."""
    th = np.radians(theta_deg)
    return np.concatenate(([th[0]], 0.5 * (th[1:] + th[:-1]), [th[-1]]))


@dataclass(frozen=True)
class DipoleSource:
    """In-plane dipole embedded in a (lossless by default) host layer."""

    vacuum_wavelength: float  # nm
    host_index: complex
    distance_to_upper_stack: float  # nm
    distance_to_lower_stack: float  # nm

    def __post_init__(self):
        number(self.vacuum_wavelength, "vacuum_wavelength", above=0.0)
        object.__setattr__(self, "host_index", _check_index(self.host_index))
        for name in ("distance_to_upper_stack", "distance_to_lower_stack"):
            number(getattr(self, name), name, low=0.0)


@dataclass(frozen=True)
class EmissionGeometry:
    """Upper and lower stacks as seen from the dipole's layer."""

    upper: LayerStack
    lower: LayerStack
    source: DipoleSource

    def __post_init__(self):
        host = self.source.host_index
        for name, stack in (("upper", self.upper), ("lower", self.lower)):
            if abs(stack.entry_index - host) > 1e-9:
                raise InvalidInput(
                    f"{name} stack entry index {stack.entry_index} does not match "
                    f"the dipole host index {host}"
                )
        for stack in (self.upper, self.lower):
            if stack.exit_index.imag < 0 or any(
                l.refractive_index.imag < 0 for l in stack.layers
            ):
                raise UnsupportedInput("gain media (Im n < 0) are not supported")
        if host.imag < 0:
            raise UnsupportedInput("gain media (Im n < 0) are not supported")

    def aperture(self, numerical_aperture, key="numerical_aperture"):
        """``numerical_aperture`` checked to lie in (0, 1] and not above the
        index of the medium the light leaves into, which no wider cone leaves."""
        return number(
            numerical_aperture, key, above=0.0, high=min(1.0, self.upper.exit_index.real)
        )


@dataclass
class AngularPowerSpectrum:
    """Power flow per unit polar angle; theta = 0 is the upward growth axis."""

    theta_grid: np.ndarray  # degrees, ascending over [0, 180]
    power_density: np.ndarray  # power per radian of polar angle
    guided_power: float
    total_power: float
    guided_in_pattern: bool = False

    # Integrating power_density over theta (in radians) plus guided_power
    # recovers total_power.  With guided_in_pattern=True the guided power has
    # additionally been folded into the bin at 90 degrees, mimicking what a
    # far-field sphere many wavelengths across would intercept from light
    # trapped in the planar waveguide; the density integral then equals
    # total_power by itself.  radiated_power() leaves the folded power out,
    # so radiated plus guided is total_power either way.

    def __post_init__(self):
        self.theta_grid = np.asarray(self.theta_grid, dtype=float)
        self.power_density = np.asarray(self.power_density, dtype=float)
        if self.theta_grid.shape != self.power_density.shape:
            raise InvalidInput("theta_grid and power_density must have equal length")

    def radiated_power(self):
        edges = _bin_edges_rad(self.theta_grid)
        folded = self.guided_power if self.guided_in_pattern else 0.0
        return float(np.sum(self.power_density * np.diff(edges))) - folded

    def to_csv(self, path_or_buf):
        header = (
            f"# guided_power = {self.guided_power:.10e}\n"
            f"# total_power = {self.total_power:.10e}\n"
            f"# guided_in_pattern = {int(self.guided_in_pattern)}\ntheta_deg,power_density"
        )
        write_table(path_or_buf, header, "%.4f,%.10e", (self.theta_grid, self.power_density))


class _CavityFields:
    """Evaluates mirror amplitudes and escape densities for one geometry.

    ``swept`` is None for one geometry.  Set to "upper" or "lower", it makes
    that mirror stand for every design cut from it after a whole number of
    Bragg periods (0, 1, ..., all of them; see ``bragg_prefix_rt``), the rest
    of the geometry shared.  Its response then has a leading design axis, and
    so have the integrand, the escape density and every integral of them.
    """

    def __init__(self, geometry: EmissionGeometry, swept):
        src = geometry.source
        self.wl = src.vacuum_wavelength
        self.k0 = 2.0 * np.pi / self.wl
        self.n_host = src.host_index.real
        self.mirrors = {
            "upper": (geometry.upper, src.distance_to_upper_stack),
            "lower": (geometry.lower, src.distance_to_lower_stack),
        }
        self.swept = swept

    def _amplitudes(self, side, kpar, kz_host):
        """{polarization: (a, t)} of one mirror for TE and TM, from one
        transfer-matrix pass, with a design axis if it is the swept one: its
        reflection carried from the dipole to the mirror and back,
        a = r exp(2i kz d), and its transmission t.  The round-trip phase is
        the same for both polarizations."""
        stack, distance = self.mirrors[side]
        rt = bragg_prefix_rt if side == self.swept else stack_rt
        phase = np.exp(2j * kz_host * distance)
        return {pol: (r * phase, t) for pol, (r, t) in rt(stack, self.wl, kpar, _IM_REG).items()}

    def dissipation_integrand(self, chi):
        """Total-power integrand G(chi) so that P = Re integral G dchi."""
        s, c = np.sin(chi), np.cos(chi)
        kpar = self.n_host * self.k0 * s
        kz_host = self.n_host * self.k0 * c
        up = self._amplitudes("upper", kpar, kz_host)
        dn = self._amplitudes("lower", kpar, kz_host)
        (a_up_te, _), (a_dn_te, _) = up[TE], dn[TE]
        (a_up_tm, _), (a_dn_tm, _) = up[TM], dn[TM]
        te = (1.0 + a_up_te) * (1.0 + a_dn_te) / (1.0 - a_up_te * a_dn_te)
        tm = (1.0 - a_up_tm) * (1.0 - a_dn_tm) / (1.0 - a_up_tm * a_dn_tm)
        return 0.75 * s * (te + c ** 2 * tm)

    def total_power(self):
        h = _CONTOUR_DEPTH

        def f(t):
            chi = t - 1j * h * np.sin(2.0 * t)
            dchi = 1.0 - 2j * h * np.cos(2.0 * t)
            return self.dissipation_integrand(chi) * dchi

        return np.real(adaptive_integral(f, 0.0, 0.5 * np.pi))

    def escape_density(self, theta_rad, side):
        """Power per radian of polar angle radiated into one half-space.

        ``theta_rad`` is measured from the outward normal of that half-space
        (air side: from +z; substrate side: from -z).
        """
        theta_rad = np.asarray(theta_rad, dtype=float)
        same, opp = ("upper", "lower") if side == "top" else ("lower", "upper")
        n_out = self.mirrors[same][0].exit_index.real
        u = (n_out / self.n_host) * np.sin(theta_rad)
        cos2chi = 1.0 - u ** 2
        cos2chi = np.maximum(cos2chi, 1e-15)
        kpar = self.n_host * self.k0 * u
        kz_host = self.n_host * self.k0 * np.sqrt(cos2chi)
        dens = 0.0
        prefac = (
            0.375
            * (n_out / self.n_host) ** 3
            * np.sin(theta_rad)
            * np.cos(theta_rad) ** 2
        )
        same_amplitudes = self._amplitudes(same, kpar, kz_host)
        opp_amplitudes = self._amplitudes(opp, kpar, kz_host)
        for pol, sign in ((TE, +1.0), (TM, -1.0)):
            a_same, t_same = same_amplitudes[pol]
            a_opp, _ = opp_amplitudes[pol]
            denom = np.abs(1.0 - a_same * a_opp) ** 2
            num = np.abs(1.0 + sign * a_opp) ** 2 * np.abs(t_same) ** 2
            if pol == TE:
                contrib = num / (denom * cos2chi)
            else:
                contrib = num / denom
            dens = dens + prefac * contrib
        return dens

    def cone_power(self, numerical_aperture):
        """Power radiated into the top-side collection cone of this aperture."""
        theta_c = np.arcsin(numerical_aperture / self.mirrors["upper"][0].exit_index.real)
        cone = adaptive_integral(lambda th: self.escape_density(th, "top"), 0.0, theta_c)
        return np.real(cone)


def emission_pattern(
    geometry: EmissionGeometry, angular_resolution=0.25, include_guided_spike=False
):
    """Orientation-averaged in-plane-dipole power versus polar angle.

    power_density is the per-bin average power per radian; summing
    density * bin width over the grid plus guided_power recovers total_power.
    """
    res = float(
        number(angular_resolution, "angular_resolution", low=_MIN_RESOLUTION_DEG, high=0.5)
    )
    # The bins tile 0-180 degrees: a grid that stopped short of 180 would book
    # the missing sliver as guided power.  The tolerance passes a decimal
    # resolution such as 0.3, whose 180 / res is 600 only up to rounding.
    bins = round(180.0 / res)
    if abs(bins * res - 180.0) > 1e-9 * 180.0:
        raise InvalidInput(
            f"angular_resolution must divide 180 degrees into whole bins, "
            f"got {angular_resolution!r}"
        )
    if type(include_guided_spike) is not bool:  # a flag: 0 and 1 are numbers, not flags
        raise InvalidInput(
            f"include_guided_spike must be true or false, got {include_guided_spike!r}"
        )
    fields = _CavityFields(geometry, None)
    total = float(fields.total_power())

    theta_grid = np.linspace(0.0, 180.0, bins + 1)
    edges = _bin_edges_rad(theta_grid)
    half_pi = 0.5 * np.pi
    # Each half-space is one set of panels: the bins on its side of 90 degrees,
    # with the bin that straddles 90 degrees cut there.  Angles are converted
    # to the half-space's own polar angle (substrate side: from -z).
    below = int(np.searchsorted(edges, half_pi, side="left"))  # edges < 90 degrees
    above = int(np.searchsorted(edges, half_pi, side="right"))  # first edge > 90 degrees
    top = _panel_integrals(
        lambda th: fields.escape_density(th, "top"),
        np.append(edges[:below], half_pi),
        _BIN_ORDER,
    )
    bottom = _panel_integrals(
        lambda th: fields.escape_density(np.pi - th, "bottom"),
        np.append(half_pi, edges[above:]),
        _BIN_ORDER,
    )
    integral = np.zeros_like(theta_grid)
    integral[:below] += top
    integral[above - 1:] += bottom
    density = integral / np.diff(edges)

    radiated = float(np.sum(integral))
    guided = total - radiated
    if guided < -0.005 * total:
        raise NumericalFailure(
            f"energy bookkeeping failed: radiated {radiated:.6f} exceeds "
            f"total dissipated power {total:.6f} by more than 0.5%"
        )
    guided = max(guided, 0.0)
    if include_guided_spike and guided > 0:
        i90 = int(np.argmin(np.abs(theta_grid - 90.0)))
        density[i90] += guided / (edges[i90 + 1] - edges[i90])
    return AngularPowerSpectrum(
        theta_grid, density, guided, total, guided_in_pattern=include_guided_spike
    )


def direct_collection_efficiency(
    geometry: EmissionGeometry, numerical_aperture, total_power=None
):
    """Collection efficiency without building the full angular pattern.

    ``total_power`` is the geometry's total dissipated power if the caller
    already has it (``AngularPowerSpectrum.total_power``); otherwise it is
    integrated here.
    """
    na = geometry.aperture(numerical_aperture)
    fields = _CavityFields(geometry, None)
    total = float(fields.total_power()) if total_power is None else total_power
    return float(fields.cone_power(na)) / total


def mirror_sweep_efficiencies(geometry: EmissionGeometry, swept, numerical_apertures):
    """Collection efficiency of every design cut from one Bragg mirror.

    The designs share ``geometry`` but for its ``swept`` mirror ("upper" or
    "lower"), which they cut after 0, 1, ..., all of its periods.  All designs
    are integrated together on one node set, and each design's total power is
    integrated once for all the apertures.  Returns {numerical aperture:
    efficiencies, one per design}; each equals ``direct_collection_efficiency``
    of that design at that aperture.
    """
    nas = [geometry.aperture(na, "numerical_apertures") for na in numerical_apertures]
    fields = _CavityFields(geometry, swept)
    total = fields.total_power()
    return {na: fields.cone_power(na) / total for na in nas}


def analytic_no_cavity_efficiency(n, numerical_aperture):
    """Closed-form collection efficiency of a dipole below a bare high-index
    surface: normal-incidence Fresnel transmission times the in-plane dipole
    power within the internal escape cone."""
    number(n, "n", above=1.0)
    na = number(numerical_aperture, "numerical_aperture", above=0.0, high=1.0)
    c = np.cos(np.arcsin(na / n))
    fresnel = 1.0 - ((n - 1.0) / (n + 1.0)) ** 2
    return fresnel * (0.5 - 0.375 * c - 0.125 * c ** 3)
