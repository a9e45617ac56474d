"""Deterministic CSV and portable-graymap export of BER grids.

Numbers are written with Python's shortest round-trip representation, a
'.' decimal separator and LF line endings, so identical grids always
serialize to identical bytes. The graymap encodes log10(BER) linearly
from the window [-8, -0.3] onto [0, 255] (clamped), covering the range of
error rates these scenarios produce; zero BER maps to black.
"""

from __future__ import annotations

import math
from pathlib import Path

from .scenario import BerGrid

CSV_HEADER = "x_m,y_m,tag,h_data,signal_ms,interference_ms,noise_var,snr,ber"

_LOG_BER_LO = -8.0
_LOG_BER_HI = -0.3


def grid_csv_text(grid: BerGrid) -> str:
    """Render a grid as CSV, one row per cell in row-major (y, x) order."""
    lines = [CSV_HEADER]
    c = grid.columns
    values = zip(c.h_data, c.signal_ms_a2, c.interference_ms_a2, c.noise_variance_a2, c.snr, c.ber)
    for y in grid.y_centers_m:
        for x in grid.x_centers_m:
            lines.append(",".join((repr(x), repr(y), grid.tag_id, *map(repr, next(values)))))
    return "\n".join(lines) + "\n"


def write_grid_csv(grid: BerGrid, path: str | Path) -> None:
    Path(path).write_bytes(grid_csv_text(grid).encode("ascii"))


def _pixel(ber: float) -> int:
    if ber <= 0.0:
        return 0
    level = (math.log10(ber) - _LOG_BER_LO) / (_LOG_BER_HI - _LOG_BER_LO) * 255.0
    return max(0, min(255, int(round(level))))


def grid_pgm_text(grid: BerGrid) -> str:
    """Render log-BER as a plain (P2) portable graymap, one image row per line."""
    width = len(grid.x_centers_m)
    height = len(grid.y_centers_m)
    lines = ["P2", f"{width} {height}", "255"]
    for start in range(0, width * height, width):
        lines.append(" ".join(str(_pixel(ber)) for ber in grid.columns.ber[start:start + width]))
    return "\n".join(lines) + "\n"


def write_grid_pgm(grid: BerGrid, path: str | Path) -> None:
    Path(path).write_bytes(grid_pgm_text(grid).encode("ascii"))
