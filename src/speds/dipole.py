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

import numpy as np

from .errors import InvalidInput, NumericalFailure, UnsupportedInput
from .multilayer import TE, TM, LayerStack, _check_index, stack_rt

# Imaginary part added to every finite layer index: damps guided-mode poles
# that sit on the real k-parallel axis.
_IM_REG = 1e-6
# Added in quadrature to |1 - a_up a_dn| so that resonance peaks stay finite.
_DENOM_FLOOR = 1e-3
# Depth h of the complex contour chi = t - i h sin(2t) of the total-power integral.
_CONTOUR_DEPTH = 0.12
# Gauss-Legendre order within each emission-pattern bin.
_BIN_ORDER = 12

_GL_CACHE = {}


def _gauss_nodes(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _panel_integrals(f, edges, order):
    """Gauss-Legendre integral of ``f`` over each panel [edges[i], edges[i+1]],
    from one vectorized call of ``f``."""
    x, w = _gauss_nodes(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return np.sum(vals * w[None, :], axis=1) * half


def adaptive_integral(f, a, b, rel_tol=1e-6, min_panels=8, max_doublings=8, order=24):
    """Composite Gauss-Legendre with panel doubling until converged."""

    def integrate(panels):
        return np.sum(_panel_integrals(f, np.linspace(a, b, panels + 1), order))

    panels = min_panels
    prev = integrate(panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = integrate(panels)
        scale = max(abs(cur), 1e-12)
        change = abs(cur - prev)
        if change <= rel_tol * scale:
            return cur
        prev = cur
    raise NumericalFailure(
        f"k-parallel quadrature did not converge on [{a}, {b}]: "
        f"{panels} panels, last change {change:.3e} vs "
        f"tolerance {rel_tol:.1e} * {scale:.3e}"
    )


def _check_numerical_aperture(numerical_aperture):
    """The numerical aperture as a float, checked to lie in (0, 1]."""
    na = float(numerical_aperture)
    if not (0.0 < na <= 1.0):
        raise InvalidInput(f"numerical aperture must be in (0, 1], got {na}")
    return na


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
        if self.vacuum_wavelength <= 0:
            raise InvalidInput(f"wavelength must be > 0, got {self.vacuum_wavelength}")
        object.__setattr__(self, "host_index", _check_index(self.host_index))
        for d in (self.distance_to_upper_stack, self.distance_to_lower_stack):
            if not np.isfinite(d) or d < 0:
                raise InvalidInput(f"stack distances must be >= 0, got {d}")


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
    # total_power by itself.

    def __post_init__(self):
        self.theta_grid = np.asarray(self.theta_grid, dtype=float)
        self.power_density = np.asarray(self.power_density, dtype=float)
        if self.theta_grid.shape != self.power_density.shape:
            raise InvalidInput("theta_grid and power_density must have equal length")

    def cone_power(self, theta_max_deg):
        """Radiated power in [0, theta_max_deg], from the piecewise-constant bins."""
        edges = _bin_edges_rad(self.theta_grid)
        tmax = np.radians(theta_max_deg)
        lo = edges[:-1]
        hi = edges[1:]
        overlap = np.clip(np.minimum(hi, tmax) - lo, 0.0, None)
        return float(np.sum(self.power_density * overlap))

    def radiated_power(self):
        edges = _bin_edges_rad(self.theta_grid)
        return float(np.sum(self.power_density * np.diff(edges)))

    def to_csv(self, path_or_buf):
        if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
            with open(path_or_buf, "w") as fh:
                self.to_csv(fh)
            return
        fh = path_or_buf
        fh.write(f"# guided_power = {self.guided_power:.10e}\n")
        fh.write(f"# total_power = {self.total_power:.10e}\n")
        fh.write(f"# guided_in_pattern = {int(self.guided_in_pattern)}\n")
        fh.write("theta_deg,power_density\n")
        for th, p in zip(self.theta_grid, self.power_density):
            fh.write(f"{th:.4f},{p:.10e}\n")

    @classmethod
    def from_csv(cls, path):
        guided = total = None
        folded = False
        theta, dens = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    if key.strip() == "guided_power":
                        guided = float(val)
                    elif key.strip() == "total_power":
                        total = float(val)
                    elif key.strip() == "guided_in_pattern":
                        folded = bool(int(val))
                elif line and not line.startswith("theta_deg"):
                    a, b = line.split(",")
                    theta.append(float(a))
                    dens.append(float(b))
        return cls(np.array(theta), np.array(dens), guided, total, folded)


class _CavityFields:
    """Evaluates mirror amplitudes and escape densities for one geometry."""

    def __init__(self, geometry: EmissionGeometry):
        self.g = geometry
        self.wl = geometry.source.vacuum_wavelength
        self.k0 = 2.0 * np.pi / self.wl
        self.n_host = geometry.source.host_index.real

    def _mirrors(self, chi):
        """a-coefficients at complex host angle chi (vectorized)."""
        u = np.sin(chi)
        kpar = self.n_host * self.k0 * u
        kz_host = self.n_host * self.k0 * np.cos(chi)
        out = {}
        for pol in (TE, TM):
            r_up, _ = stack_rt(self.g.upper, self.wl, kpar, pol, _IM_REG)
            r_dn, _ = stack_rt(self.g.lower, self.wl, kpar, pol, _IM_REG)
            out[pol] = (
                r_up * np.exp(2j * kz_host * self.g.source.distance_to_upper_stack),
                r_dn * np.exp(2j * kz_host * self.g.source.distance_to_lower_stack),
            )
        return out

    def dissipation_integrand(self, chi):
        """Total-power integrand G(chi) so that P = Re integral G dchi."""
        m = self._mirrors(chi)
        a_up_te, a_dn_te = m[TE]
        a_up_tm, a_dn_tm = m[TM]
        s, c = np.sin(chi), np.cos(chi)
        te = (1.0 + a_up_te) * (1.0 + a_dn_te) / (1.0 - a_up_te * a_dn_te)
        tm = (1.0 - a_up_tm) * (1.0 - a_dn_tm) / (1.0 - a_up_tm * a_dn_tm)
        return 0.75 * s * (te + c ** 2 * tm)

    def total_power(self):
        h = _CONTOUR_DEPTH

        def f(t):
            chi = t - 1j * h * np.sin(2.0 * t)
            dchi = 1.0 - 2j * h * np.cos(2.0 * t)
            return self.dissipation_integrand(chi) * dchi

        val = adaptive_integral(f, 0.0, 0.5 * np.pi)
        return float(np.real(val))

    def escape_density(self, theta_rad, side):
        """Power per radian of polar angle radiated into one half-space.

        ``theta_rad`` is measured from the outward normal of that half-space
        (air side: from +z; substrate side: from -z).
        """
        theta_rad = np.asarray(theta_rad, dtype=float)
        src = self.g.source
        up = (self.g.upper, src.distance_to_upper_stack)
        dn = (self.g.lower, src.distance_to_lower_stack)
        (stack, dist_same), (opp_stack, dist_opp) = (up, dn) if side == "top" else (dn, up)
        n_out = stack.exit_index.real
        u = (n_out / self.n_host) * np.sin(theta_rad)
        cos2chi = 1.0 - u ** 2
        cos2chi = np.maximum(cos2chi, 1e-15)
        kpar = self.n_host * self.k0 * u
        kz_host = self.n_host * self.k0 * np.sqrt(cos2chi)
        dens = np.zeros_like(theta_rad)
        prefac = (
            0.375
            * (n_out / self.n_host) ** 3
            * np.sin(theta_rad)
            * np.cos(theta_rad) ** 2
        )
        floor2 = _DENOM_FLOOR ** 2
        for pol, sign in ((TE, +1.0), (TM, -1.0)):
            r_same, t_same = stack_rt(stack, self.wl, kpar, pol, _IM_REG)
            r_opp, _ = stack_rt(opp_stack, self.wl, kpar, pol, _IM_REG)
            a_same = r_same * np.exp(2j * kz_host * dist_same)
            a_opp = r_opp * np.exp(2j * kz_host * dist_opp)
            denom = np.abs(1.0 - a_same * a_opp) ** 2 + floor2
            num = np.abs(1.0 + sign * a_opp) ** 2 * np.abs(t_same) ** 2
            if pol == TE:
                contrib = num / (denom * cos2chi)
            else:
                contrib = num / denom
            dens += prefac * contrib
        return dens


def emission_pattern(
    geometry: EmissionGeometry, angular_resolution=0.25, include_guided_spike=False
):
    """Orientation-averaged in-plane-dipole power versus polar angle.

    power_density is the per-bin average power per radian; summing
    density * bin width over the grid plus guided_power recovers total_power.
    """
    if not (0.0 < angular_resolution <= 0.5):
        raise InvalidInput(
            f"angular_resolution must be in (0, 0.5] degrees, got {angular_resolution}"
        )
    fields = _CavityFields(geometry)
    total = fields.total_power()

    res = float(angular_resolution)
    theta_grid = np.arange(0.0, 180.0 + 0.5 * res, res)
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


def collection_efficiency(spectrum: AngularPowerSpectrum, numerical_aperture):
    """Fraction of total power radiated into the top-side collection cone."""
    na = _check_numerical_aperture(numerical_aperture)
    theta_c = np.degrees(np.arcsin(na))
    return spectrum.cone_power(theta_c) / spectrum.total_power


def direct_collection_efficiency(
    geometry: EmissionGeometry, numerical_aperture, total_power=None
):
    """Collection efficiency without building the full angular pattern.

    ``total_power`` is the geometry's total dissipated power if the caller
    already has it (``AngularPowerSpectrum.total_power``); otherwise it is
    integrated here.
    """
    na = _check_numerical_aperture(numerical_aperture)
    fields = _CavityFields(geometry)
    total = fields.total_power() if total_power is None else total_power
    theta_c = np.arcsin(na / geometry.upper.exit_index.real)
    cone = adaptive_integral(lambda th: fields.escape_density(th, "top"), 0.0, theta_c)
    return float(np.real(cone)) / total


def analytic_no_cavity_efficiency(n, numerical_aperture):
    """Closed-form collection efficiency of a dipole below a bare high-index
    surface: normal-incidence Fresnel transmission times the in-plane dipole
    power within the internal escape cone."""
    n = float(n)
    if n <= 1.0:
        raise InvalidInput(f"host index must exceed 1, got {n}")
    na = _check_numerical_aperture(numerical_aperture)
    c = np.cos(np.arcsin(na / n))
    fresnel = 1.0 - ((n - 1.0) / (n + 1.0)) ** 2
    return fresnel * (0.5 - 0.375 * c - 0.125 * c ** 3)
