"""Independent numerical oracles used by the test suite.

Everything here is derived from the model definitions alone (closed forms,
boundary conditions solved directly, matrix exponentials of the rate
equations), never from the implementation under test.
"""

import numpy as np
from scipy.linalg import expm

# ---------------------------------------------------------------------------
# Quarter-wave Bragg mirror, normal incidence


def dbr_reflectance(n_entry, n_exit, n_low, n_high, periods):
    """Classic closed form for a (low, high)^N quarter-wave stack."""
    rho = (n_exit / n_entry) * (n_low / n_high) ** (2 * periods)
    return ((1.0 - rho) / (1.0 + rho)) ** 2


# ---------------------------------------------------------------------------
# Planar stack at oblique incidence by direct solution of the boundary
# conditions, and the downward far field of an in-plane dipole by reciprocity
# (Lukosz, JOSA 71, 744 (1981)).  No transfer-matrix product is formed: the
# tangential-field continuity conditions of all interfaces are solved as one
# linear system per angle.
#
# A stack is given bottom to top: ``indices`` holds the bottom half-space,
# the finite layers and the top half-space; ``thicknesses`` (nm) the finite
# layers.  In every medium the field is up * exp(i kz z) + down * exp(-i kz z),
# with z measured from the lower boundary of that layer (from the first
# interface in the bottom half-space).  TE amplitudes are E_y; TM amplitudes
# are H_y, whose tangential partner E_x is proportional to (kz / n^2) times
# (up - down).


def _kz(n, k0, kpar):
    kz = np.sqrt((n * k0) ** 2 - kpar ** 2 + 0j)
    return np.where(kz.imag < 0, -kz, kz)


def _admittance(n, kz, pol):
    return kz if pol == "TE" else kz / n ** 2


def solve_stack(indices, thicknesses, wavelength, kpar, pol):
    """Amplitudes for a unit plane wave incident upward from the bottom half-space.

    Returns (up, down, kz), each of shape (len(kpar), len(indices)).  up[:, 0]
    is the incident wave (1) and down[:, -1] is zero (nothing comes from above).
    """
    indices = np.asarray(indices, dtype=complex)
    kpar = np.atleast_1d(np.asarray(kpar, dtype=float))
    m = len(indices)
    if len(thicknesses) != m - 2:
        raise ValueError("need one thickness per finite layer")
    k0 = 2.0 * np.pi / wavelength
    kz = _kz(indices[None, :], k0, kpar[:, None])
    g = _admittance(indices[None, :], kz, pol)
    # phase factor across each finite layer (1 in the bottom half-space,
    # whose z origin is its upper boundary)
    phase = np.ones_like(kz)
    phase[:, 1:-1] = np.exp(1j * kz[:, 1:-1] * np.asarray(thicknesses, dtype=float))
    # full system over all 2m amplitudes (up_j at column 2j, down_j at 2j + 1)
    k = len(kpar)
    a = np.zeros((k, 2 * m - 2, 2 * m), dtype=complex)
    for j in range(m - 1):
        # field and admittance-weighted field continuous at interface j | j+1
        p = phase[:, j]
        a[:, 2 * j, 2 * j:2 * j + 4] = np.stack([p, 1.0 / p, -np.ones(k), -np.ones(k)], 1)
        a[:, 2 * j + 1, 2 * j:2 * j + 4] = np.stack(
            [g[:, j] * p, -g[:, j] / p, -g[:, j + 1], g[:, j + 1]], 1
        )
    # incident up_0 = 1 moves to the right-hand side; down_{m-1} = 0 is dropped
    rhs = -a[:, :, 0]
    x = np.linalg.solve(a[:, :, 1:-1], rhs[:, :, None])[:, :, 0]
    amps = np.concatenate([np.ones((k, 1)), x, np.zeros((k, 1))], axis=1)
    return amps[:, 0::2], amps[:, 1::2], kz


def stack_flux(indices, thicknesses, wavelength, kpar, pol):
    """Reflected and transmitted power fractions (R, T) of the solved stack."""
    indices = np.asarray(indices, dtype=complex)
    up, down, kz = solve_stack(indices, thicknesses, wavelength, kpar, pol)
    g_in = _admittance(indices[0], kz[:, 0], pol).real
    g_out = _admittance(indices[-1], kz[:, -1], pol).real
    return np.abs(down[:, 0]) ** 2, g_out / g_in * np.abs(up[:, -1]) ** 2


def dbr_cavity(periods, wavelength, n_high, n_low, n_top, cavity_order, dipole_height):
    """Bottom-to-top description of a dipole in a high-index cavity.

    The cavity (index n_high, ``cavity_order`` in-medium wavelengths thick)
    sits on ``periods`` quarter-wave (high, low) pairs over a high-index
    substrate, so the layer next to the cavity is low-index; above it is the
    half-space ``n_top``.  The dipole lies ``dipole_height`` in-medium
    wavelengths above the mirror.  Returns (indices, thicknesses, dipole_layer,
    dipole_z) with dipole_z in nm from the cavity's lower boundary.
    """
    indices = [n_high]
    thicknesses = []
    for _ in range(periods):
        indices += [n_high, n_low]
        thicknesses += [wavelength / (4.0 * n_high), wavelength / (4.0 * n_low)]
    indices += [n_high, n_top]
    thicknesses.append(cavity_order * wavelength / n_high)
    return indices, thicknesses, len(indices) - 2, dipole_height * wavelength / n_high


def downward_escape_density(theta, indices, thicknesses, dipole_layer, dipole_z,
                            wavelength):
    """Orientation-averaged in-plane-dipole power per radian radiated into the
    bottom half-space at polar angle ``theta`` (radians from -z).

    By reciprocity the far field in that direction is the field a plane wave
    arriving from it produces at the dipole: density = 3/8 sin(theta) *
    (|E_y / E_inc|^2 + cos^2(theta) |E_x / E_x,inc|^2), normalized to the same
    dipole in an unbounded host.  The dipole host and the bottom half-space
    must be the same medium.
    """
    indices = np.asarray(indices, dtype=complex)
    if indices[dipole_layer] != indices[0]:
        raise ValueError("the dipole host must match the bottom half-space")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    kpar = indices[0].real * 2.0 * np.pi / wavelength * np.sin(theta)
    fields = []
    for pol in ("TE", "TM"):
        up, down, kz = solve_stack(indices, thicknesses, wavelength, kpar, pol)
        p = np.exp(1j * kz[:, dipole_layer] * dipole_z)
        sign = 1.0 if pol == "TE" else -1.0
        fields.append(np.abs(up[:, dipole_layer] * p + sign * down[:, dipole_layer] / p) ** 2)
    te, tm = fields
    return 0.375 * np.sin(theta) * (te + np.cos(theta) ** 2 * tm)


def downward_power(indices, thicknesses, dipole_layer, dipole_z, wavelength,
                   theta_max, panels=32, order=16):
    """Integral of ``downward_escape_density`` over [0, theta_max] radians.

    Composite Gauss-Legendre with a panel edge at every critical angle inside
    the range.  There total internal reflection sets in: the density has a
    square-root kink and, in a cavity, a leaky-mode peak a few hundredths of a
    degree wide just past the edge.  Each side of an edge is integrated in
    s = sqrt(|theta - edge|), which removes the kink and spreads the peak.
    """
    n_bottom = np.real(indices[0])
    edges = [np.arcsin(n / n_bottom) for n in np.real(indices)
             if n < n_bottom and np.arcsin(n / n_bottom) < theta_max]
    x, w = np.polynomial.legendre.leggauss(order)
    breaks = np.unique([0.0, theta_max] + edges)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        # substitute from the edge-side end: theta = end +- s^2
        if b in edges:
            end, sign = b, -1.0
        else:
            end, sign = a, 1.0
        s_edges = np.linspace(0.0, np.sqrt(b - a), panels + 1)
        half = 0.5 * np.diff(s_edges)[:, None]
        s = 0.5 * (s_edges[1:] + s_edges[:-1])[:, None] + half * x[None, :]
        theta = end + sign * s ** 2
        vals = downward_escape_density(theta.ravel(), indices, thicknesses,
                                       dipole_layer, dipole_z, wavelength)
        total += np.sum(vals.reshape(s.shape) * 2.0 * s * w[None, :] * half)
    return float(total)


# ---------------------------------------------------------------------------
# Four-state DC rate model: states ordered (empty, X, X2, shelved)


def dc_generator(tau_x, tau_x2, capture, shelve_p, unshelve):
    """Full generator matrix Q (rows = from-state, Q @ ones = 0)."""
    gx = 1.0 / tau_x
    gb = 1.0 / tau_x2
    q = np.zeros((4, 4))
    q[0, 1] = capture
    q[1, 2] = capture
    q[1, 0] = (1.0 - shelve_p) * gx
    q[1, 3] = shelve_p * gx
    q[2, 1] = gb
    q[3, 0] = unshelve
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def dc_steady_state(tau_x, tau_x2, capture, shelve_p, unshelve):
    q = dc_generator(tau_x, tau_x2, capture, shelve_p, unshelve)
    a = np.vstack([q.T, np.ones(4)])
    b = np.zeros(5)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def x_waiting_time_cdf(ts, tau_x, tau_x2, capture, shelve_p, unshelve):
    """CDF of the time between consecutive X emissions under DC drive.

    X emission is the decay of the X state; afterwards the dot restarts from
    empty with probability 1 - shelve_p, shelved otherwise.  The waiting time
    is the first passage to the next X decay, computed from the defective
    generator with the X-decay channel removed (phase-type distribution).
    """
    t_mat = dc_generator(tau_x, tau_x2, capture, shelve_p, unshelve).copy()
    gx = 1.0 / tau_x
    # remove the emission transitions (they feed the absorbing state)
    t_mat[1, 0] -= (1.0 - shelve_p) * gx
    t_mat[1, 3] -= shelve_p * gx
    alpha = np.array([1.0 - shelve_p, 0.0, 0.0, shelve_p])
    out = []
    for t in np.atleast_1d(ts):
        out.append(1.0 - alpha @ expm(t_mat * t) @ np.ones(4))
    return np.array(out)


def dc_g2(ts, tau_x, tau_x2, capture, shelve_p, unshelve):
    """Normalized X-line intensity correlation of the DC rate model.

    g2(t) = P(X occupied at t | start from the post-emission distribution)
    divided by the steady-state X occupation.
    """
    q = dc_generator(tau_x, tau_x2, capture, shelve_p, unshelve)
    pi = dc_steady_state(tau_x, tau_x2, capture, shelve_p, unshelve)
    alpha = np.array([1.0 - shelve_p, 0.0, 0.0, shelve_p])
    out = []
    for t in np.atleast_1d(ts):
        p = alpha @ expm(q * t)
        out.append(p[1] / pi[1])
    return np.array(out)


# ---------------------------------------------------------------------------
# Two-state per-pulse shelving chain (pulsed drive, pulse and lifetimes
# short against the period): state at pulse arrival is ready or shelved.


def shelving_peak_areas(ms, q_excite, shelve_p, unshelve, period):
    """Normalized side-peak areas area(m) of the two-state pulse chain.

    Per period: a ready dot emits with probability q_excite and then shelves
    with probability shelve_p; a shelved dot survives the period shelved with
    probability b = exp(-unshelve * period).  area(m) is the conditional
    emission probability m periods after an emission over the unconditional
    one.
    """
    b = np.exp(-unshelve * period)
    step_from_ready = q_excite * shelve_p * b
    pi_s = step_from_ready / (1.0 - b + step_from_ready)
    p_s = shelve_p * b  # P(shelved at the next pulse | emitted now)
    areas = []
    for m in np.atleast_1d(ms):
        ps = p_s
        for _ in range(int(m) - 1):
            ps = ps * b + (1.0 - ps) * step_from_ready
        areas.append((1.0 - ps) / (1.0 - pi_s))
    return np.array(areas)


# ---------------------------------------------------------------------------
# Pulsed drive without refilling: at most one photon per pulse, emitted an
# exponential delay (lifetime tau_x) after the pulse, independently of the
# other pulses.


def unrefilled_zero_area(period, tau_x):
    """Normalized zero-window area(0) of a pulsed source that never refills.

    Peak m collects the delays within half a period of m * period.  With no
    two photons from one pulse, every zero-window pair comes from pulses
    m != 0 apart whose emission delays s1, s2 differ by D = s2 - s1 with
    |m * period + D| < period / 2.  The windows tile the delay axis, so a far
    window holds exactly one peak's area and, summed over m != 0,

        area(0) = 1 - P(|D| < period / 2) = P(|D| > period / 2).

    The difference of two independent exponential delays is Laplace
    distributed, P(|D| > x) = exp(-x / tau_x).
    """
    return float(np.exp(-0.5 * period / tau_x))
