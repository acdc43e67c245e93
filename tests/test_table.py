"""Every result table's bytes against ``np.savetxt``, the writer they had before
``_table.write_table``, called as each ``to_csv`` called it."""

import io

import numpy as np
import pytest

from speds import _table, cli
from speds.designer import SweepResult
from speds.dipole import AngularPowerSpectrum
from speds.hbt import CorrelationHistogram, PeakAreas, correlate


def savetxt_args(result):
    """(table, fmt, header, newline) of the ``np.savetxt`` call that wrote ``result``."""
    if isinstance(result, AngularPowerSpectrum):
        header = (
            f"# guided_power = {result.guided_power:.10e}\n"
            f"# total_power = {result.total_power:.10e}\n"
            f"# guided_in_pattern = {int(result.guided_in_pattern)}\ntheta_deg,power_density"
        )
        table = np.column_stack((result.theta_grid, result.power_density))
        return table, "%.4f,%.10e", header, "\n"
    if isinstance(result, SweepResult):
        table = np.column_stack((result.parameter_values, result.efficiencies))
        return table, "%d,%.8e", "periods,efficiency", "\r\n"
    if isinstance(result, CorrelationHistogram):
        line_a, line_b = result.source_lines
        header = (
            f"# mode = {'auto' if line_a == line_b else 'cross'}\n"
            f"# source_lines = {line_a},{line_b}\n# n_a = {result.n_a}\n# n_b = {result.n_b}\n"
            f"# duration_ns = {result.duration:.9f}\ntau_ns,counts,g2_normalized"
        )
        table = np.column_stack((result.tau_centers, result.counts, result.g2()))
        return table, "%.6f,%d,%.8e", header, "\n"
    assert isinstance(result, PeakAreas)
    table = np.column_stack((result.orders, result.areas))
    return table, "%d,%.8e", f"# m_far = {result.m_far}\nm,area", "\n"


def oracle_bytes(result, tmp_path):
    table, fmt, header, newline = savetxt_args(result)
    path = tmp_path / "oracle.csv"
    np.savetxt(path, table, fmt=fmt, header=header, comments="", newline=newline)
    return path.read_bytes()


def written_bytes(result, tmp_path, target):
    if target == "path":
        path = tmp_path / "table.csv"
        result.to_csv(path)
        return path.read_bytes()
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue().encode("latin-1")


def preset_tables(command, preset):
    """The results a preset's run writes, by file name, from its handler."""
    config = cli._load_config(cli._build_parser().parse_args([command, "--preset", preset]))
    return cli._COMMANDS[command][0](config, config["seed"])[1]


# one preset per result type: 721 pattern rows, 26 and 11 sweep rows, and a
# 640-bin histogram with its 25 peak areas
PRESET_TABLES = [
    ("emission-pattern", "fig6b_cavity", "emission_pattern.csv", AngularPowerSpectrum),
    ("cavity-sweep", "fig5_sweep", "fig5_geometry_NA0.5.csv", SweepResult),
    ("cavity-sweep", "top_mirror_study", "top_mirror_geometry.csv", SweepResult),
    ("hbt", "laser_80mhz", "histogram.csv", CorrelationHistogram),
    ("hbt", "laser_80mhz", "peak_areas.csv", PeakAreas),
]


@pytest.mark.parametrize("target", ["path", "buffer"])
@pytest.mark.parametrize(
    "command,preset,name,kind", PRESET_TABLES, ids=[f"{p}-{n}" for _, p, n, _ in PRESET_TABLES]
)
def test_preset_table_bytes_equal_savetxt(tmp_path, command, preset, name, kind, target):
    result = preset_tables(command, preset)[name]
    assert isinstance(result, kind)
    assert written_bytes(result, tmp_path, target) == oracle_bytes(result, tmp_path)


def long_histogram():
    """A histogram of two write blocks and one row: 2 * _BLOCK_ROWS + 1 bins."""
    n_bins = 2 * _table._BLOCK_ROWS + 1
    rng = np.random.default_rng(25)
    a, b = (np.sort(rng.uniform(0.0, 4.0 * n_bins, 300)) for _ in range(2))
    # bins of 2 ns over +-n_bins ns: exactly n_bins of them
    hist = correlate(a, b, float(n_bins), 2.0, 4.0 * n_bins, ("X", "X2"))
    assert hist.counts.size == n_bins and hist.counts.sum() > 0
    return hist


@pytest.mark.parametrize("target", ["path", "buffer"])
def test_histogram_longer_than_one_block_equals_savetxt(tmp_path, target):
    hist = long_histogram()
    assert written_bytes(hist, tmp_path, target) == oracle_bytes(hist, tmp_path)


def test_each_block_of_rows_is_one_write():
    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    buf = Writes()
    long_histogram().to_csv(buf)
    # the header with the first block, then the second block and the last row
    assert len(buf.sizes) == 3
    assert buf.getvalue().count("\n") == 6 + 2 * _table._BLOCK_ROWS + 1


def test_empty_table_writes_its_header_alone(tmp_path):
    result = SweepResult([], [])
    assert written_bytes(result, tmp_path, "path") == b"periods,efficiency\r\n"
    assert written_bytes(result, tmp_path, "path") == oracle_bytes(result, tmp_path)
