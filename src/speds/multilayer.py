"""Plane-wave optics of planar layer stacks.

Transfer-matrix reflection/transmission for arbitrary stacks of isotropic
layers between two semi-infinite media, plus quarter-wave Bragg-mirror
construction.

Conventions (enforced by the half-wave / quarter-wave identity tests):
    * time dependence exp(-i w t), propagation phase exp(+i kz d)
    * kz = sqrt((n k0)^2 - kpar^2) on the branch Im(kz) >= 0,
      with Re(kz) >= 0 for lossless propagating waves
    * TM (p) amplitude coefficients follow the convention in which
      r_TM = -r_TE at normal incidence
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidInput, number

TE = "TE"
TM = "TM"

# Material constants at the 900 nm design wavelength.  Only n_GaAs is pinned
# by tabulated data; n_AlAs is the usual near-IR value and Al0.98Ga0.02As is
# treated as AlAs.  Dispersionless by design.
N_GAAS = 3.5
N_ALAS = 2.95
DESIGN_WAVELENGTH_NM = 900.0
# Largest real or imaginary part of a refractive index.  No optical medium
# comes near it (GaAs is 3.5, metals at 900 nm have |n| < 10), and far above
# it (n k0)^2 overflows.
MAX_INDEX = 100.0


def _check_index(n):
    """A refractive index as a complex number: 0 < Re n <= ``MAX_INDEX``
    and |Im n| <= ``MAX_INDEX``."""
    real, imag = (n.real, n.imag) if isinstance(n, complex) else (n, 0.0)
    number(real, "refractive_index", above=0.0, high=MAX_INDEX)
    number(imag, "refractive_index (imaginary part)", low=-MAX_INDEX, high=MAX_INDEX)
    return complex(real, imag)


@dataclass(frozen=True)
class Layer:
    """A finite-thickness optical layer. Semi-infinite media live on LayerStack."""

    thickness: float  # nm
    refractive_index: complex

    def __post_init__(self):
        number(self.thickness, "thickness", above=0.0)
        n = _check_index(self.refractive_index)
        if n.imag < 0:
            raise InvalidInput(f"passive media only: Im(n) >= 0, got {n}")
        object.__setattr__(self, "refractive_index", n)


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers between two half-spaces.

    ``entry_index`` is the half-space the incident wave comes from; layers are
    ordered from the entry side to the exit side.
    """

    entry_index: complex
    layers: Tuple[Layer, ...]
    exit_index: complex

    def __post_init__(self):
        object.__setattr__(self, "entry_index", _check_index(self.entry_index))
        object.__setattr__(self, "exit_index", _check_index(self.exit_index))
        object.__setattr__(self, "layers", tuple(self.layers))


def kz_normal(n, k0, kpar):
    """Layer-normal wavevector on the physical branch (vectorized over kpar)."""
    # The principal complex square root already gives Im >= 0 for passive
    # media and +i|kz| for evanescent waves in lossless ones; it is also the
    # analytic continuation used by the complex-contour dissipation integral.
    return np.sqrt((n * k0) ** 2 - np.asarray(kpar, dtype=complex) ** 2)


def _interface_rt(n1, n2, kz1, kz2, polarization):
    if n1 == n2:  # no interface; the formulas below are 0/0 at kz = 0
        return np.zeros_like(kz1), np.ones_like(kz1)
    if polarization == TE:
        denom = kz1 + kz2
        r = (kz1 - kz2) / denom
        t = 2.0 * kz1 / denom
    else:
        denom = n2 ** 2 * kz1 + n1 ** 2 * kz2
        r = (n2 ** 2 * kz1 - n1 ** 2 * kz2) / denom
        t = 2.0 * n1 * n2 * kz1 / denom
    return r, t


def _product(a, b):
    """The 2x2 matrix product a . b, each matrix as its four components."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def _check_polarization(polarization):
    if polarization not in (TE, TM):
        raise InvalidInput(f"polarization must be TE or TM, got {polarization!r}")


def _closed_products(stack, vacuum_wavelength, kpar, im_reg, cuts):
    """{polarization: [(r, t), ...]} for TE and TM: (r, t) of the stack's first
    ``c`` layers closed by its exit medium, one pair per ``c`` in the ascending
    ``cuts``, from one pass over the layers.

    Only the interface coefficients depend on the polarization, so each
    medium's kz and each (index, thickness)'s propagation phases are computed
    once for both.  The leading c layers of a stack are the same whatever
    follows them, so the running product up to layer c is shared by every cut
    at or after it.  The product starts at the first layer's matrix, so with
    no layers before a cut its (r, t) is the exit interface's own.  It is taken
    two layers at a time, one Bragg period, and each distinct two-layer block
    is built once per polarization from the cached layer steps; an odd last
    layer is taken alone.  A cut closes the product M with the exit interface
    (r_e, t_e) written out:
    r = (m10 + m11 r_e) / (m00 + m01 r_e), t = t_e / (m00 + m01 r_e).
    """
    number(vacuum_wavelength, "vacuum_wavelength", above=0.0)
    kpar = np.asarray(kpar, dtype=complex)
    k0 = 2.0 * np.pi / vacuum_wavelength
    indices = [stack.entry_index]
    for layer in stack.layers:
        indices.append(layer.refractive_index + 1j * im_reg)
    # A Bragg stack repeats two indices: one kz array per distinct medium.
    kz = {n: kz_normal(n, k0, kpar) for n in set(indices) | {stack.exit_index}}
    # ... and repeats each (interface, layer) step every period: one
    # propagation P through each distinct layer, one matrix I(n1, n2) . P per
    # distinct step and polarization, and one product of two steps per
    # distinct block.
    thicknesses = [layer.thickness for layer in stack.layers]
    keys = list(zip(indices, indices[1:], thicknesses))
    phases = {}
    for n, thickness in set(zip(indices[1:], thicknesses)):
        delta = kz[n] * thickness
        phases[n, thickness] = (np.exp(-1j * delta), np.exp(+1j * delta))

    def closed(polarization):
        steps = {}
        blocks = {}
        exits = {}

        def step(key):
            if key not in steps:
                n1, n2, thickness = key
                r, t = _interface_rt(n1, n2, kz[n1], kz[n2], polarization)
                pf, pb = phases[n2, thickness]
                steps[key] = (pf / t, pb * r / t, pf * r / t, pb / t)
            return steps[key]

        def block(pair):
            if pair not in blocks:
                blocks[pair] = step(pair[0]) if len(pair) == 1 else _product(*map(step, pair))
            return blocks[pair]

        m = None
        out = []
        done = 0
        for cut in cuts:
            for j in range(done, cut, 2):
                b = block(tuple(keys[j:min(j + 2, cut)]))
                m = b if m is None else _product(m, b)
            done = cut
            n1, n2 = indices[cut], stack.exit_index
            if n1 not in exits:
                exits[n1] = _interface_rt(n1, n2, kz[n1], kz[n2], polarization)
            r_e, t_e = exits[n1]
            if m is None:
                out.append((r_e, t_e))
            else:
                m00, m01, m10, m11 = m
                den = m00 + m01 * r_e
                out.append(((m10 + m11 * r_e) / den, t_e / den))
        return out

    return {pol: closed(pol) for pol in (TE, TM)}


def stack_rt(stack: LayerStack, vacuum_wavelength, kpar, im_reg=0.0):
    """Vectorized amplitude reflection/transmission of a stack, as
    ``{TE: (r, t), TM: (r, t)}`` from one pass.

    ``kpar`` may be a scalar or array, real or complex (complex values are used
    by the contour-deformed dipole dissipation integral).  ``im_reg`` adds a
    small imaginary part to every finite-layer index, regularizing guided-mode
    poles.  Phase is referenced to the entry-side boundary.
    """
    cut = len(stack.layers)
    rt = _closed_products(stack, vacuum_wavelength, kpar, im_reg, [cut])
    return {pol: pairs[0] for pol, pairs in rt.items()}


def bragg_prefix_rt(stack: LayerStack, vacuum_wavelength, kpar, im_reg):
    """``stack_rt`` of every whole-period prefix of a Bragg stack, in one pass.

    The stack is laid out as ``build_bragg`` lays it, two layers a period; the
    prefix of N periods is closed by the stack's exit medium.  Returns
    ``{TE: (r, t), TM: (r, t)}``, each array with a leading axis over N = 0,
    1, ..., the stack's period count, and each row equal to ``stack_rt`` of
    that N-period stack.
    """
    if len(stack.layers) % 2:
        raise InvalidInput(f"a Bragg stack has two layers a period, got {len(stack.layers)}")
    cuts = range(0, len(stack.layers) + 1, 2)
    rt = _closed_products(stack, vacuum_wavelength, kpar, im_reg, cuts)
    return {pol: tuple(map(np.stack, zip(*pairs))) for pol, pairs in rt.items()}


def power_reflectance(stack: LayerStack, vacuum_wavelength, kpar, polarization):
    """|r|^2 of ``stack_rt`` for one polarization, vectorized over kpar."""
    _check_polarization(polarization)
    r, _ = stack_rt(stack, vacuum_wavelength, kpar)[polarization]
    return np.abs(r) ** 2


def power_transmittance(stack: LayerStack, vacuum_wavelength, kpar, polarization):
    """Energy transmittance including the admittance weight, for one
    polarization, vectorized over kpar."""
    _check_polarization(polarization)
    _, t = stack_rt(stack, vacuum_wavelength, kpar)[polarization]
    k0 = 2.0 * np.pi / vacuum_wavelength
    kz_in = kz_normal(stack.entry_index, k0, kpar)
    kz_out = kz_normal(stack.exit_index, k0, kpar)
    if polarization == TE:
        weight = np.real(kz_out) / np.real(kz_in)
    else:
        weight = np.real(kz_out * np.conj(stack.exit_index) / stack.exit_index) / np.real(
            kz_in * np.conj(stack.entry_index) / stack.entry_index
        )
    return np.abs(t) ** 2 * weight


def build_bragg(
    n_high,
    n_low,
    design_wavelength=DESIGN_WAVELENGTH_NM,
    periods=0,
    entry_index=1.0,
    exit_index=N_GAAS,
):
    """Quarter-wave stack of ``periods`` (low, high) pairs, entry side first.

    With this ordering the normal-incidence reflectance follows the classic
    closed form R = [(1 - (n_exit/n_entry)(n_low/n_high)^(2N)) /
    (1 + (n_exit/n_entry)(n_low/n_high)^(2N))]^2 and grows monotonically with N.
    """
    number(periods, "periods", low=0, integer=True)
    n_high = _check_index(n_high)
    n_low = _check_index(n_low)
    number(design_wavelength, "design_wavelength", above=0.0)
    layers = []
    for _ in range(periods):
        layers.append(Layer(design_wavelength / (4.0 * n_low.real), n_low))
        layers.append(Layer(design_wavelength / (4.0 * n_high.real), n_high))
    return LayerStack(entry_index, tuple(layers), exit_index)
