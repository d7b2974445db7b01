"""Exact text output: the one real-number format and the one CSV writer.

Reals carry 17 significant digits, so every printed or written value parses
back to the same float.  Integers go through the same format and print as
plain digits below 1e17.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_REAL = "%.17g"

#: Rows formatted per block; bounds the Python objects alive during a write.
CSV_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    return _REAL % value


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length 1-D columns under `header`, one row per index."""
    row_format = ",".join([_REAL] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [col[start:start + CSV_BLOCK_ROWS].tolist() for col in columns]
            fh.write("".join([row_format % row for row in zip(*block)]))
