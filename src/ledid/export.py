"""Deterministic CSV and portable-graymap export of BER grids.

Numbers are written with Python's shortest round-trip representation, a
'.' decimal separator and LF line endings, so identical grids always
serialize to identical bytes. The graymap encodes log10(BER) linearly
from the window [-8, -0.3] onto [0, 255] (clamped), covering the range of
error rates these scenarios produce; zero BER maps to black. The model
gives no other rate outside (0, 1], but a hand-built grid may: NaN, -inf
and -0.0 are not positive and map to black too, and +inf maps to white.

Grids repeat values heavily, so each distinct 64-bit value is formatted
once, not once per cell; ``repr`` and ``log10`` are pure functions of a
float's bits, so the bytes are those of the per-cell rendering.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .scenario import BerGrid

CSV_HEADER = "x_m,y_m,tag,h_data,signal_ms,interference_ms,noise_var,snr,ber"

_LOG_BER_LO = -8.0
_LOG_BER_HI = -0.3
_LEVELS = np.array([str(level) for level in range(256)], dtype=object)


def _per_distinct(function, values: np.ndarray) -> np.ndarray:
    """``function`` of each entry of a float64 array, called once per distinct bit
    pattern: keyed on bits, not values, -0.0 and 0.0 (and NaN payloads) stay apart."""
    unique, inverse = np.unique(values.reshape(-1).view(np.uint64), return_inverse=True)
    results = np.empty(len(unique), dtype=object)
    results[:] = list(map(function, unique.view(np.float64).tolist()))
    return results[inverse.reshape(values.shape)]


def grid_csv_text(grid: BerGrid) -> str:
    """Render a grid as CSV, one row per cell in row-major (y, x) order."""
    c = grid.columns
    xs = [repr(x) for x in grid.x_centers_m]
    keys = [f"{x},{y},{grid.tag_id}" for y in map(repr, grid.y_centers_m) for x in xs]
    values = _per_distinct(repr, np.array([c.h_data, c.signal_ms_a2, c.interference_ms_a2,
                                            c.noise_variance_a2, c.snr, c.ber])).tolist()
    return "\n".join((CSV_HEADER, *map(",".join, zip(keys, *values)))) + "\n"


def write_grid_csv(grid: BerGrid, path: str | Path) -> None:
    Path(path).write_bytes(grid_csv_text(grid).encode("ascii"))


def grid_pgm_text(grid: BerGrid) -> str:
    """Render log-BER as a plain (P2) portable graymap, one image row per line."""
    width = len(grid.x_centers_m)
    height = len(grid.y_centers_m)
    ber = np.asarray(grid.columns.ber)
    positive = ber > 0.0
    log_ber = np.zeros(len(ber))
    log_ber[positive] = _per_distinct(math.log10, ber[positive])
    level = (log_ber - _LOG_BER_LO) / (_LOG_BER_HI - _LOG_BER_LO) * 255.0
    # rint rounds half to even, as round does.
    pixels = np.where(positive, np.clip(np.rint(level), 0, 255), 0).astype(int).reshape(height, width)
    lines = ["P2", f"{width} {height}", "255"]
    lines.extend(map(" ".join, _LEVELS[pixels].tolist()))
    return "\n".join(lines) + "\n"


def write_grid_pgm(grid: BerGrid, path: str | Path) -> None:
    Path(path).write_bytes(grid_pgm_text(grid).encode("ascii"))
