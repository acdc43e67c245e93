"""The one CSV writer of the result tables: each ``to_csv`` calls ``write_table``."""

import os

import numpy as np

# Rows formatted and written at a time: a table at the 10^6-bin cap of a
# correlation histogram is written in 62 blocks, and never holds more than
# one block of rows as strings.
_BLOCK_ROWS = 1 << 14


def write_table(target, header, fmt, columns, newline="\n"):
    """Write ``header`` and then one row per entry of the equal-length
    ``columns``, formatted as ``fmt % row``, each line ended by ``newline``.

    The bytes are those numpy's text-table writer gives for the stacked
    columns, the same ``fmt``, ``header`` and ``newline`` and no comment
    prefix (the tests hold every table to it): a path is written as latin-1
    text, as numpy writes it, and a text buffer as given.
    Each block of at most ``_BLOCK_ROWS`` rows is formatted from its columns'
    ``tolist()`` and written in one call, the header with the first block.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="latin-1") as fh:
            write_table(fh, header, fmt, columns, newline)
        return
    columns = [np.asarray(column) for column in columns]
    line, text = fmt + newline, header + newline
    for start in range(0, max(len(columns[0]), 1), _BLOCK_ROWS):  # a header even with no rows
        block = [column[start:start + _BLOCK_ROWS].tolist() for column in columns]
        target.write(text + "".join([line % row for row in zip(*block)]))
        text = ""
