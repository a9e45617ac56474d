"""The batch kernel against the scalar reference, bit for bit.

``evaluate_points`` must return, for every position, exactly the floats
``evaluate_link`` returns there; the grid, the lamp-foot summaries and the
coverage ladder all rest on that. Values are compared through
``float.hex`` so that even the sign of a zero counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledid import (
    DetectorModel,
    EmitterModel,
    GeometryError,
    GridSpec,
    Luminaire,
    NoiseParams,
    ParameterError,
    Pose,
    Room,
    Scenario,
    TagNotFoundError,
    Vec3,
    builtin_g1,
    builtin_l1,
    coverage,
    evaluate_grid,
    evaluate_link,
    evaluate_points,
    scenario_critical_distance,
)
from ledid.analysis import foot_bers

DOWN = Vec3(0.0, 0.0, -1.0)
DET = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3)
FIELDS = ("received_power_w", "signal_ms_a2", "interference_ms_a2", "noise_variance_a2", "snr", "ber")

# Coverage answers of the scalar search (one evaluate_link per step) at
# threshold 1e-2: (max reliable distance in m, max reliable angle in deg).
SEED_COVERAGE = {
    ("l1", "outer-left"): (0.40312500000000007, 17.314453125),
    ("l1", "inner"): (0.34500000000000003, 22.236328125),
    ("l1", "outer-right"): (0.40312500000000007, 59.94140625),
    ("g1", "nw"): (0.34187500000000004, 22.587890625),
    ("g1", "n"): (0.316875, 25.224609375),
    ("g1", "ne"): (0.34187500000000004, 59.94140625),
    ("g1", "w"): (0.316875, 25.224609375),
    ("g1", "center"): (0.30125, 27.158203125),
    ("g1", "e"): (0.316875, 59.94140625),
    ("g1", "sw"): (0.34187500000000004, 22.587890625),
    ("g1", "s"): (0.316875, 25.224609375),
    ("g1", "se"): (0.34187500000000004, 59.94140625),
}


def bits(values):
    return [float(v).hex() for v in values]


def assert_matches_scalar(scenario, positions, tag):
    """evaluate_points equals evaluate_link at every position, column by column."""
    columns = evaluate_points(scenario, positions, tag)
    budgets = [evaluate_link(scenario, Vec3(*p), tag) for p in positions]
    assert bits(columns.h_data) == bits(b.data_gain(tag) for b in budgets)
    for name in FIELDS:
        assert bits(getattr(columns, name)) == bits(getattr(b, name) for b in budgets), name
    return columns


def shared_tag_scenario(receiver_axis=Vec3(0.0, 0.0, 1.0), fov_deg=60.0, noise=NoiseParams()):
    # Four lamps share "twin", two carry "odd"; one odd lamp is aimed off
    # vertical, so the emitter axes differ per luminaire.
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    wide = EmitterModel(power_w=0.7, semi_angle_deg=35.0)
    lamps = [Luminaire("twin", Pose(Vec3(x, y, 2.5), DOWN), emitter)
             for x in (-0.3, 0.3) for y in (-0.3, 0.3)]
    lamps.append(Luminaire("odd", Pose(Vec3(0.0, 0.0, 2.5), DOWN), wide))
    lamps.append(Luminaire("odd", Pose.aimed(Vec3(0.9, -0.6, 2.4), Vec3(0.2, 0.1, 0.0)), emitter))
    return Scenario(room=Room(3.0, 3.0, 2.5), luminaires=tuple(lamps),
                    detector=DetectorModel(area_m2=1e-4, fov_deg=fov_deg, gain=1.3),
                    receiver_axis=receiver_axis, noise=noise)


def plane_points(scenario, plane_m, n):
    """Centers of an n x n grid over the room footprint, plane_m below the ceiling."""
    room = scenario.room
    z = room.height_m - plane_m
    return [(0.5 * room.width_m * (2 * ix + 1 - n) / n, 0.5 * room.depth_m * (2 * iy + 1 - n) / n, z)
            for iy in range(n) for ix in range(n)]


class TestEvaluatePoints:
    @pytest.mark.parametrize("make, tags", [(builtin_l1, ("outer-left", "inner")),
                                            (builtin_g1, ("center", "ne", "s"))], ids=["L1", "G1"])
    @pytest.mark.parametrize("plane_m", [0.3, 0.5])
    def test_grids_match_the_scalar_path(self, make, tags, plane_m):
        scenario = make()
        for tag in tags:
            grid = evaluate_grid(scenario, GridSpec.for_room(scenario.room, plane_m, 11), tag)
            points = [(x, y, 2.0 - plane_m) for y in grid.y_centers_m for x in grid.x_centers_m]
            columns = assert_matches_scalar(scenario, points, tag)
            assert grid.columns == columns

    def test_shared_tag_layout(self):
        scenario = shared_tag_scenario()
        for tag in ("twin", "odd"):
            assert_matches_scalar(scenario, plane_points(scenario, 0.8, 9), tag)

    def test_tilted_receiver(self):
        axis = Vec3(0.35, -0.2, 0.9).normalized()
        scenario = shared_tag_scenario(receiver_axis=axis)
        columns = assert_matches_scalar(scenario, plane_points(scenario, 0.6, 9), "twin")
        # The tilt changes the answer, so the test does exercise the axis.
        assert columns != evaluate_points(shared_tag_scenario(), plane_points(scenario, 0.6, 9), "twin")

    def test_dark_cells_outside_the_field_of_view(self):
        scenario = shared_tag_scenario(fov_deg=10.0)
        columns = assert_matches_scalar(scenario, plane_points(scenario, 0.5, 9), "twin")
        dark = [i for i, s in enumerate(columns.snr) if s == 0.0]
        assert dark and all(columns.ber[i] == 0.5 for i in dark)
        assert all(columns.signal_ms_a2[i] == 0.0 for i in dark)
        assert 0.0 in columns.received_power_w  # no lamp in view at all

    def test_noiseless_lone_lamp_reaches_the_infinite_snr_sentinel(self):
        # Shot noise 2 q R P B underflows to zero at this bandwidth while the
        # signal stays positive: SNR inf, BER 0 under the lamp.
        scenario = Scenario(
            room=Room(2.0, 2.0, 2.0),
            luminaires=(Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN),
                                  EmitterModel(power_w=1.0, semi_angle_deg=20.0)),),
            detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3, bandwidth_hz=1e-300),
        )
        columns = assert_matches_scalar(scenario, plane_points(scenario, 0.5, 8), "solo")
        assert math.inf in columns.snr and 0.0 in columns.ber
        assert 0.0 in columns.snr and 0.5 in columns.ber

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0)),
                    min_size=1, max_size=12),
           st.sampled_from(("nw", "center", "e")))
    def test_drawn_points_in_g1(self, points, tag):
        scenario = builtin_g1()
        lamps = {(lum.pose.position.x, lum.pose.position.y, lum.pose.position.z)
                 for lum in scenario.luminaires}
        if lamps.intersection(points):
            with pytest.raises(GeometryError):
                evaluate_points(scenario, points, tag)
        else:
            assert_matches_scalar(scenario, points, tag)

    def test_position_on_a_lamp_is_a_geometry_error(self):
        with pytest.raises(GeometryError, match="coincide"):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0), (0.16, 0.0, 2.0)], "inner")

    def test_unknown_tag(self):
        with pytest.raises(TagNotFoundError):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0)], "nope")

    @pytest.mark.parametrize("positions", [[(0.0, 0.0)], [(0.0, math.nan, 1.0)], [(math.inf, 0.0, 1.0)]],
                             ids=["shape", "nan", "inf"])
    def test_bad_positions_are_parameter_errors(self, positions):
        with pytest.raises(ParameterError):
            evaluate_points(builtin_l1(), positions, "inner")

    def test_no_positions_give_empty_columns(self):
        columns = evaluate_points(builtin_l1(), np.zeros((0, 3)), "inner")
        assert len(columns.ber) == 0 and len(columns.h_data) == 0

    def test_blocks_do_not_change_the_result(self):
        # 9 lamps put about 900 points in one block; 2000 points span three.
        scenario = builtin_g1()
        points = [(-0.9 + 0.0009 * i, 0.3 - 0.0002 * i, 1.55) for i in range(2000)]
        whole = evaluate_points(scenario, points, "center")
        parts = [evaluate_points(scenario, [p], "center") for p in points[::97]]
        assert [c.ber[0] for c in parts] == list(whole.ber[::97])
        assert [c.snr[0] for c in parts] == list(whole.snr[::97])


class TestGridColumns:
    def test_cells_view_is_the_scalar_budget(self):
        scenario = shared_tag_scenario()
        grid = evaluate_grid(scenario, GridSpec.for_room(scenario.room, 0.7, 6), "odd")
        z = scenario.room.height_m - 0.7
        for iy, y in enumerate(grid.y_centers_m):
            for ix, x in enumerate(grid.x_centers_m):
                assert grid.cells[iy][ix] == evaluate_link(scenario, Vec3(x, y, z), "odd")
        assert grid.cells is grid.cells

    def test_columns_are_row_major(self):
        scenario = builtin_l1()
        grid = evaluate_grid(scenario, GridSpec(0.3, (-1.0, 1.0), (-0.5, 0.5), 4), "inner")
        nx = len(grid.x_centers_m)
        for iy in range(len(grid.y_centers_m)):
            for ix in range(nx):
                assert grid.columns.ber[iy * nx + ix] == grid.cells[iy][ix].ber

    def test_grids_compare_by_value(self):
        scenario = builtin_g1()
        spec = GridSpec.for_room(scenario.room, 0.4, 7)
        first = evaluate_grid(scenario, spec, "n")
        assert first == evaluate_grid(scenario, spec, "n")
        assert first != evaluate_grid(scenario, spec, "s")


class TestAnalysisThroughTheKernel:
    @pytest.mark.parametrize("doc, tag", sorted(SEED_COVERAGE), ids=[f"{d}-{t}" for d, t in sorted(SEED_COVERAGE)])
    def test_coverage_keeps_the_scalar_answers(self, doc, tag):
        scenario = builtin_l1() if doc == "l1" else builtin_g1()
        report = coverage(scenario, tag)
        assert (report.max_reliable_distance_m, report.max_reliable_angle_deg) == SEED_COVERAGE[doc, tag]

    @pytest.mark.parametrize("plane_m", [0.3, 0.5])
    def test_foot_bers_match_the_scalar_path(self, plane_m):
        scenario = shared_tag_scenario()
        z = scenario.room.height_m - plane_m
        for tag in ("twin", "odd"):
            expected = [evaluate_link(scenario, Vec3(lum.pose.position.x, lum.pose.position.y, z), tag).ber
                        for lum in scenario.luminaires_for(tag)]
            assert bits(foot_bers(scenario, plane_m, tag)) == bits(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 3.0)),
                    min_size=2, max_size=40))
    def test_critical_distance_matches_the_pair_loop(self, coordinates):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=25.0)
        lamps = tuple(Luminaire(f"t{i}", Pose(Vec3(*c), DOWN), emitter) for i, c in enumerate(coordinates))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET)
        positions = [lum.pose.position for lum in lamps]
        spacing = min((positions[i] - positions[j]).norm()
                      for i in range(len(positions)) for j in range(i + 1, len(positions)))
        expected = 0.0 if spacing == 0.0 else spacing / math.tan(math.radians(25.0))
        assert scenario_critical_distance(scenario).hex() == expected.hex()

    def test_critical_distance_spans_several_blocks(self):
        # 256 lamps on a 16 x 16 ceiling: 32 rows per block, 8 blocks; the
        # tightest pair sits in the last block.
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=30.0)
        lamps = [Luminaire("t", Pose(Vec3(0.25 * ix - 1.875, 0.25 * iy - 1.875, 3.0), DOWN), emitter)
                 for iy in range(16) for ix in range(16)]
        lamps[-1] = Luminaire("t", Pose(Vec3(1.8, 1.875, 3.0), DOWN), emitter)
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=tuple(lamps), detector=DET)
        spacing = (lamps[-1].pose.position - lamps[-2].pose.position).norm()
        assert scenario_critical_distance(scenario) == spacing / math.tan(math.radians(30.0))
