"""Parameter sweeps and optimization over planar-cavity designs.

Two geometry presets are built in:

``fig5_geometry``
    Dipole two (in-medium) wavelengths below the GaAs/air surface and one
    wavelength above the bottom GaAs/AlAs mirror (a 3-wavelength cavity).

``top_mirror_geometry``
    One-wavelength cavity between a bottom mirror and an optional top mirror,
    dipole centered at the field antinode.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ._table import write_table
from .dipole import DipoleSource, EmissionGeometry, mirror_sweep_efficiencies
from .errors import InvalidInput, number
from .multilayer import DESIGN_WAVELENGTH_NM, N_ALAS, N_GAAS, LayerStack, build_bragg

FIG5_PRESET = "fig5_geometry"
TOP_MIRROR_PRESET = "top_mirror_geometry"

# Longest mirror, in Bragg periods.  At 100 periods (n_AlAs/n_GaAs)^(2N) is
# about 1.4e-15 and 1 - R about 6e-15, a few rounding steps from R = 1, so a
# longer mirror changes nothing but the work.
MAX_MIRROR_PERIODS = 100
# Longest cavity, in design wavelengths.  The paper's cavities are of order
# 1-3.  On the fig6b_cavity geometry the k-parallel quadrature resolves the
# cavity's dense mode comb up to order 1e4, and from 1e5 on it fails after
# spending its whole panel budget; 1000 keeps a tenfold margin.
MAX_CAVITY_ORDER = 1000.0


@dataclass(frozen=True)
class CavityDesign:
    bottom_periods: int
    top_periods: int = 0
    cavity_order: float = 3.0  # optical cavity length in design wavelengths
    dipole_depth_below_surface: float = 2.0  # in design wavelengths (optical)

    def __post_init__(self):
        for name in ("bottom_periods", "top_periods"):
            number(getattr(self, name), name, low=0, high=MAX_MIRROR_PERIODS, integer=True)
        number(self.cavity_order, "cavity_order", above=0.0, high=MAX_CAVITY_ORDER)
        if (2.0 * self.cavity_order) % 1.0 != 0:
            raise InvalidInput(
                f"cavity order must be a positive multiple of 0.5, got {self.cavity_order}"
            )
        number(
            self.dipole_depth_below_surface, "dipole_depth_below_surface",
            above=0.0, below=self.cavity_order,
        )


@dataclass
class SweepResult:
    parameter_values: List[int]
    efficiencies: List[float]

    def __post_init__(self):
        if len(self.parameter_values) != len(self.efficiencies):
            raise InvalidInput("parameter and efficiency lists must have equal length")

    @property
    def argmax(self):
        # first occurrence on ties, i.e. the cheaper structure
        return int(np.argmax(self.efficiencies))

    @property
    def best_parameter(self):
        return self.parameter_values[self.argmax]

    @property
    def best_efficiency(self):
        return self.efficiencies[self.argmax]

    def to_csv(self, path):
        write_table(
            path, "periods,efficiency", "%d,%.8e",
            (self.parameter_values, self.efficiencies), newline="\r\n",
        )


def geometry_for(design: CavityDesign) -> EmissionGeometry:
    """Planar emission geometry for a cavity design.

    Distances are optical: a depth of d design-wavelengths corresponds to a
    physical GaAs thickness d * lambda / n_GaAs.  Every medium is
    dispersionless and every length scales with lambda, so the design
    wavelength sets the length unit only.
    """
    lam = DESIGN_WAVELENGTH_NM
    lam_in_medium = lam / N_GAAS
    d_up = design.dipole_depth_below_surface * lam_in_medium
    d_dn = (design.cavity_order - design.dipole_depth_below_surface) * lam_in_medium
    source = DipoleSource(lam, N_GAAS, d_up, d_dn)
    if design.top_periods > 0:
        upper = build_bragg(
            N_GAAS, N_ALAS, lam, design.top_periods, entry_index=N_GAAS, exit_index=1.0
        )
    else:
        upper = LayerStack(N_GAAS, (), 1.0)
    lower = build_bragg(
        N_GAAS, N_ALAS, lam, design.bottom_periods, entry_index=N_GAAS, exit_index=N_GAAS
    )
    return EmissionGeometry(upper, lower, source)


def fig5_design(bottom_periods):
    return CavityDesign(
        bottom_periods=bottom_periods,
        top_periods=0,
        cavity_order=3.0,
        dipole_depth_below_surface=2.0,
    )


def top_mirror_design(top_periods, bottom_periods=12):
    return CavityDesign(
        bottom_periods=bottom_periods,
        top_periods=top_periods,
        cavity_order=1.0,
        dipole_depth_below_surface=0.5,
    )


def sweep_bottom_mirror(max_periods=25, numerical_apertures: Sequence[float] = (0.5,)):
    """Collection efficiency versus bottom-mirror repeats (Fig. 5 style sweep).

    Returns {numerical_aperture: SweepResult} with N = 0..max_periods.
    """
    number(max_periods, "max_periods", low=12, high=MAX_MIRROR_PERIODS, integer=True)
    if not isinstance(numerical_apertures, (list, tuple)) or not numerical_apertures:
        raise InvalidInput(
            f"numerical_apertures must list at least one aperture, got {numerical_apertures!r}"
        )
    nas = [
        number(na, "numerical_apertures", above=0.0, high=1.0) for na in numerical_apertures
    ]
    # each aperture's file and summary entry is named by its :g form
    if len({f"{na:g}" for na in nas}) < len(nas):
        raise InvalidInput(
            "numerical_apertures must differ in their first 6 significant digits, "
            f"got {numerical_apertures!r}"
        )
    periods = list(range(max_periods + 1))
    geometry = geometry_for(fig5_design(max_periods))
    etas = mirror_sweep_efficiencies(geometry, "lower", nas)
    return {na: SweepResult(periods, etas[na].tolist()) for na in nas}


def optimize_top_mirror(bottom_periods=12, max_top=10, numerical_aperture=0.5):
    """Collection efficiency versus top-mirror repeats for a one-wavelength cavity."""
    number(bottom_periods, "bottom_periods", low=0, high=MAX_MIRROR_PERIODS, integer=True)
    number(max_top, "max_top", low=0, high=MAX_MIRROR_PERIODS, integer=True)
    na = number(numerical_aperture, "numerical_aperture", above=0.0, high=1.0)
    geometry = geometry_for(top_mirror_design(max_top, bottom_periods))
    etas = mirror_sweep_efficiencies(geometry, "upper", [na])
    return SweepResult(list(range(max_top + 1)), etas[na].tolist())
