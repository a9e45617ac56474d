"""CSV and graymap export against a row-by-row reference renderer.

The exporters render whole columns at once, formatting each distinct
64-bit value once; the references below render one cell at a time, with
``repr`` per value and ``round`` per pixel, and must give the same text on
any grid.
"""

import math
import struct
from array import array

import numpy as np
from hypothesis import find, given, settings
from hypothesis import strategies as st

from ledid import GridSpec, builtin_l1, export
from ledid.export import CSV_HEADER, grid_csv_text, grid_pgm_text
from ledid.link import LinkColumns
from ledid.scenario import BerGrid

# Error rates on the graymap's window edges: log10 is exactly -8 at 1e-8,
# the level is exactly 255.0 at the two values near 10**-0.3, and exactly
# 6.5, 19.5 and 20.5 at the last three, where rounding goes half to even.
EDGE_BERS = (0.0, 1e-8, 0.5011872336272722, 0.5011872336272724, 0.5, 1.0, 5e-324,
             1.5713557164500302e-08, 3.879926775749813e-08, 4.159293887526659e-08)
bers = st.one_of(st.sampled_from(EDGE_BERS), st.floats(0.0, 1.0))
values = st.floats(0.0, allow_nan=False)
coordinates = st.floats(-10.0, 10.0)
L1 = builtin_l1()
SPEC = GridSpec.for_room(L1.room, 0.3, 2)  # export never reads a grid's spec


def reference_csv(grid):
    lines = [CSV_HEADER]
    c = grid.columns
    cells = zip(c.h_data, c.signal_ms_a2, c.interference_ms_a2, c.noise_variance_a2, c.snr, c.ber)
    for y in grid.y_centers_m:
        for x in grid.x_centers_m:
            lines.append(",".join((repr(x), repr(y), grid.tag_id, *map(repr, next(cells)))))
    return "\n".join(lines) + "\n"


def reference_pixel(ber):
    if ber <= 0.0:
        return 0
    level = (math.log10(ber) - -8.0) / (-0.3 - -8.0) * 255.0
    return max(0, min(255, int(round(level))))


def reference_pgm(grid):
    width = len(grid.x_centers_m)
    lines = ["P2", f"{width} {len(grid.y_centers_m)}", "255"]
    ber = grid.columns.ber
    for start in range(0, len(ber), width):
        lines.append(" ".join(str(reference_pixel(b)) for b in ber[start:start + width]))
    return "\n".join(lines) + "\n"


@st.composite
def grids(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = width * height
    column = [array("d", draw(st.lists(values, min_size=n, max_size=n))) for _ in range(6)]
    ber = array("d", draw(st.lists(bers, min_size=n, max_size=n)))
    return BerGrid(
        spec=SPEC,
        tag_id=draw(st.sampled_from(("inner", "outer-left"))),
        x_centers_m=tuple(draw(st.lists(coordinates, min_size=width, max_size=width))),
        y_centers_m=tuple(draw(st.lists(coordinates, min_size=height, max_size=height))),
        columns=LinkColumns(*column, ber),
    )


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# A few values, so cells repeat them within and across columns. The signed
# zeros compare equal, and the NaNs (payloads 0, 1 and a negative one) are
# all 'nan', yet each has its own bits. repr switches to exponent form
# below 1e-4 and from 1e16; 5e-324 and 1e-310 are subnormal.
BER_POOL = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e-4, 0.25,
            0.5011872336272722, 1.0, 9999999999999998.0, 1e16)
POOL = (*BER_POOL, -1e-5, math.inf, -math.inf,
        _nan(0x7FF8000000000000), _nan(0x7FF8000000000001), _nan(0xFFF80000DEADBEEF))


@st.composite
def pooled_grids(draw):
    """Grids whose six columns draw from ``POOL``; error rates, which the
    graymap reference takes as probabilities, from its finite part."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = width * height
    column = [array("d", draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n))) for _ in range(6)]
    ber = array("d", draw(st.lists(st.sampled_from(BER_POOL), min_size=n, max_size=n)))
    return BerGrid(SPEC, "inner", tuple(map(float, range(width))), tuple(map(float, range(height))),
                   LinkColumns(*column, ber))


@settings(max_examples=150, deadline=None)
@given(pooled_grids())
def test_repeated_values_render_as_the_row_by_row_renderer(grid):
    assert grid_csv_text(grid) == reference_csv(grid)
    assert grid_pgm_text(grid) == reference_pgm(grid)


def test_all_zero_error_rates():
    # No positive error rate: the graymap takes log10 of an empty column.
    zeros = array("d", [0.0, -0.0, 0.0, 0.0, -0.0, 0.0])
    grid = BerGrid(SPEC, "inner", (0.0, 1.0, 2.0), (0.0, 1.0), LinkColumns(*[zeros] * 7))
    assert grid_csv_text(grid) == reference_csv(grid)
    assert grid_pgm_text(grid) == reference_pgm(grid)
    assert grid_pgm_text(grid).endswith("\n0 0 0\n0 0 0\n")


def test_keying_on_float_values_fails_the_property(monkeypatch):
    # The same dedupe keyed on float64 values, not bits, renders one of
    # 0.0 and -0.0 as the other.
    def per_distinct_value(function, values):
        unique, inverse = np.unique(values.reshape(-1), return_inverse=True)
        results = np.empty(len(unique), dtype=object)
        results[:] = list(map(function, unique.tolist()))
        return results[inverse.reshape(values.shape)]

    monkeypatch.setattr(export, "_per_distinct", per_distinct_value)
    grid = find(pooled_grids(), lambda grid: grid_csv_text(grid) != reference_csv(grid),
                settings=settings(max_examples=500, database=None))
    c = grid.columns
    values = {struct.pack("<d", v) for v in (*c.h_data, *c.signal_ms_a2, *c.interference_ms_a2,
                                             *c.noise_variance_a2, *c.snr, *c.ber)}
    assert {struct.pack("<d", 0.0), struct.pack("<d", -0.0)} <= values


@settings(max_examples=150, deadline=None)
@given(grids())
def test_csv_matches_the_row_by_row_renderer(grid):
    assert grid_csv_text(grid) == reference_csv(grid)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_pgm_matches_the_row_by_row_renderer(grid):
    assert grid_pgm_text(grid) == reference_pgm(grid)


def test_window_edges_and_half_levels():
    # The edge values do sit on the edges, and each renders as the reference does.
    zeros = array("d", [0.0] * len(EDGE_BERS))
    grid = BerGrid(SPEC, "inner", tuple(map(float, range(len(EDGE_BERS)))), (0.0,),
                   LinkColumns(zeros, zeros, zeros, zeros, zeros, zeros, array("d", EDGE_BERS)))
    assert grid_pgm_text(grid) == reference_pgm(grid)
    assert grid_pgm_text(grid).splitlines()[3] == "0 0 255 255 255 255 0 6 20 20"


def test_non_finite_error_rates():
    # The model never gives these, but a hand-built grid may hold them: NaN,
    # -inf and -0.0 fail the positive test and are drawn black, like a zero
    # error rate, and +inf has log10 +inf, clamped to white. The reference
    # renderer cannot take NaN or +-inf, so the pixels are pinned here.
    ber = array("d", [math.nan, -math.inf, -0.0, math.inf, 0.0, 1.0])
    zeros = array("d", [0.0] * len(ber))
    grid = BerGrid(SPEC, "inner", (0.0, 1.0, 2.0), (0.0, 1.0), LinkColumns(*[zeros] * 6, ber))
    assert grid_pgm_text(grid) == "P2\n3 2\n255\n0 0 0\n255 0 255\n"
