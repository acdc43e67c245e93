"""Parameter sweeps and optimization over planar-cavity designs.

Two geometry presets are built in:

``fig5_geometry``
    Dipole two (in-medium) wavelengths below the GaAs/air surface and one
    wavelength above the bottom GaAs/AlAs mirror (a 3-wavelength cavity).

``top_mirror_geometry``
    One-wavelength cavity between a bottom mirror and an optional top mirror,
    dipole centered at the field antinode.
"""

import csv
import os
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .dipole import DipoleSource, EmissionGeometry, direct_collection_efficiency
from .errors import InvalidInput
from .multilayer import DESIGN_WAVELENGTH_NM, N_ALAS, N_GAAS, LayerStack, build_bragg

FIG5_PRESET = "fig5_geometry"
TOP_MIRROR_PRESET = "top_mirror_geometry"


@dataclass(frozen=True)
class CavityDesign:
    bottom_periods: int
    top_periods: int = 0
    cavity_order: float = 3.0  # optical cavity length in design wavelengths
    dipole_depth_below_surface: float = 2.0  # in design wavelengths (optical)
    numerical_aperture: float = 0.5
    design_wavelength: float = DESIGN_WAVELENGTH_NM

    def __post_init__(self):
        if self.bottom_periods < 0 or self.top_periods < 0:
            raise InvalidInput("mirror period counts must be >= 0")
        if self.cavity_order <= 0 or (2.0 * self.cavity_order) % 1.0 != 0:
            raise InvalidInput(
                f"cavity order must be a positive multiple of 0.5, got {self.cavity_order}"
            )
        if not (0.0 < self.dipole_depth_below_surface < self.cavity_order):
            raise InvalidInput(
                "dipole depth must lie strictly inside the cavity "
                f"(0, {self.cavity_order}), got {self.dipole_depth_below_surface}"
            )
        if not (0.0 < self.numerical_aperture <= 1.0):
            raise InvalidInput(
                f"numerical aperture must be in (0, 1], got {self.numerical_aperture}"
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

    def to_csv(self, path, parameter_name="parameter"):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([parameter_name, "efficiency"])
            for p, e in zip(self.parameter_values, self.efficiencies):
                writer.writerow([p, f"{e:.8e}"])


def geometry_for(design: CavityDesign) -> EmissionGeometry:
    """Planar emission geometry for a cavity design.

    Distances are optical: a depth of d design-wavelengths corresponds to a
    physical GaAs thickness d * lambda / n_GaAs.
    """
    lam = design.design_wavelength
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


def fig5_design(bottom_periods, numerical_aperture=0.5, design_wavelength=DESIGN_WAVELENGTH_NM):
    return CavityDesign(
        bottom_periods=bottom_periods,
        top_periods=0,
        cavity_order=3.0,
        dipole_depth_below_surface=2.0,
        numerical_aperture=numerical_aperture,
        design_wavelength=design_wavelength,
    )


def top_mirror_design(
    top_periods, bottom_periods=12, numerical_aperture=0.5, design_wavelength=DESIGN_WAVELENGTH_NM
):
    return CavityDesign(
        bottom_periods=bottom_periods,
        top_periods=top_periods,
        cavity_order=1.0,
        dipole_depth_below_surface=0.5,
        numerical_aperture=numerical_aperture,
        design_wavelength=design_wavelength,
    )


def sweep_bottom_mirror(max_periods, numerical_apertures: Sequence[float]):
    """Collection efficiency versus bottom-mirror repeats (Fig. 5 style sweep).

    Returns {numerical_aperture: SweepResult} with N = 0..max_periods.
    """
    if max_periods < 12:
        raise InvalidInput(f"max_periods must be >= 12, got {max_periods}")
    results = {}
    for na in numerical_apertures:
        etas = []
        for n in range(max_periods + 1):
            geom = geometry_for(fig5_design(n, na))
            etas.append(direct_collection_efficiency(geom, na))
        results[float(na)] = SweepResult(list(range(max_periods + 1)), etas)
    return results


def optimize_top_mirror(bottom_periods=12, max_top=10, numerical_aperture=0.5):
    """Collection efficiency versus top-mirror repeats for a one-wavelength cavity."""
    if bottom_periods < 0 or max_top < 0:
        raise InvalidInput("period counts must be >= 0")
    etas = []
    for t in range(max_top + 1):
        geom = geometry_for(top_mirror_design(t, bottom_periods, numerical_aperture))
        etas.append(direct_collection_efficiency(geom, numerical_aperture))
    return SweepResult(list(range(max_top + 1)), etas)


def sweep_csv_name(preset, numerical_aperture):
    return f"{preset}_NA{numerical_aperture:g}.csv"


def write_sweep_csvs(out_dir, preset, results):
    """One CSV per NA; ``results`` is {na: SweepResult} or a single SweepResult."""
    if isinstance(results, SweepResult):
        results = {None: results}
    paths = []
    for na, res in results.items():
        name = sweep_csv_name(preset, na) if na is not None else f"{preset}.csv"
        path = os.path.join(out_dir, name)
        res.to_csv(path, parameter_name="periods")
        paths.append(path)
    return paths
