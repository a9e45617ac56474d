"""CSV and graymap export against a row-by-row reference renderer.

The exporters render whole columns at once; the references below render
one cell at a time, with ``repr`` per value and ``round`` per pixel, and
must give the same text on any grid.
"""

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from ledid import GridSpec, builtin_l1
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
SPEC = GridSpec.for_room(L1.room, 0.3, 2)  # BerGrid reads its spec only for cells


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
        scenario=L1,
    )


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
                   LinkColumns(zeros, zeros, zeros, zeros, zeros, zeros, array("d", EDGE_BERS)), L1)
    assert grid_pgm_text(grid) == reference_pgm(grid)
    assert grid_pgm_text(grid).splitlines()[3] == "0 0 255 255 255 255 0 6 20 20"
