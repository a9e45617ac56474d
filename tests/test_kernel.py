"""The batch kernel against the scalar reference, bit for bit.

``evaluate_points`` must return, for every position, exactly the floats
``evaluate_link`` returns there; the grid, the lamp-foot summaries and the
coverage ladder all rest on that. Values are compared through
``float.hex`` so that even the sign of a zero counts.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bench_documents import workload_documents
from ledid import (
    DetectorModel,
    EmitterModel,
    GeometryError,
    Luminaire,
    ModulationParams,
    NoiseParams,
    ParameterError,
    Pose,
    Room,
    Scenario,
    TagNotFoundError,
    Vec3,
    builtin_g1,
    ber_bfsk,
    builtin_l1,
    channel_gain,
    coverage,
    evaluate_grid,
    evaluate_link,
    evaluate_points,
    scenario_critical_distance,
    snr,
)
from ledid import link, load_scenario
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


def stacked_scenario(power_w, lamps, detector):
    """``lamps`` coincident tag-a luminaires above a tag-b neighbour."""
    emitter = EmitterModel(power_w=power_w, semi_angle_deg=20.0)
    stack = [Luminaire("a", Pose(Vec3(0.0, 0.0, 2.0), DOWN), emitter)] * lamps
    neighbour = Luminaire("b", Pose(Vec3(0.5, 0.0, 2.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=20.0))
    return Scenario(room=Room(2.0, 2.0, 2.0), luminaires=(*stack, neighbour), detector=detector)


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
            grid = evaluate_grid(scenario, plane_m, 11, tag)
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
    # A subnormal offset from a lamp squares to a zero distance, too.
    @example([(0.0, 2.2250738585e-313, 2.0)], "nw")
    def test_drawn_points_in_g1(self, points, tag):
        scenario = builtin_g1()
        try:
            for p in points:
                evaluate_link(scenario, Vec3(*p), tag)
        except GeometryError:
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

    @pytest.mark.parametrize("power_w, lamps, area_m2, gain, column", [
        (1.0e300, 1, 1e-4, 1.3, "signal"),
        (1.0, 1, 1.0e300, 1.0e300, "received power"),
        (2.1e157, 3, 1e-4, 1.3, "signal"),
    ], ids=["power-product", "gain-product", "sum-of-finite-terms"])
    def test_overflowing_budget_is_a_parameter_error(self, power_w, lamps, area_m2, gain, column):
        scenario = stacked_scenario(power_w, lamps, DetectorModel(area_m2=area_m2, fov_deg=60.0, gain=gain))
        message = f"{column} is not finite"
        with pytest.raises(ParameterError, match=message):
            evaluate_link(scenario, Vec3(0.0, 0.0, 1.5), "a")
        with pytest.raises(ParameterError, match=message):
            evaluate_points(scenario, [(0.3, 0.0, 1.5), (0.0, 0.0, 1.5)], "a")

    @pytest.mark.parametrize("evaluate", [
        lambda scenario: evaluate_link(scenario, Vec3(0.0, 0.0, 1.0), "a"),
        lambda scenario: evaluate_points(scenario, [(0.5, 0.0, 1.0), (0.0, 0.0, 1.0)], "a"),
    ], ids=["scalar", "kernel"])
    def test_cosine_power_past_the_largest_float_is_a_parameter_error(self, evaluate):
        # The axis passes Pose's unit-length tolerance, so on axis cos(theta) =
        # 1 + 5e-10, and the order of a 1e-5 degree semi-angle (4.6e13) raises
        # it past the largest float: an infinite gain, not an OverflowError.
        lamp = Luminaire("a", Pose(Vec3(0.0, 0.0, 2.0), Vec3(0.0, 0.0, -(1.0 + 5e-10))),
                         EmitterModel(power_w=1.0, semi_angle_deg=1e-5))
        scenario = Scenario(room=Room(2.0, 2.0, 2.0), luminaires=(lamp,), detector=DET)
        with pytest.raises(ParameterError, match="received power is not finite"):
            evaluate(scenario)

    def test_geometry_overflow_is_quiet_and_matches_the_scalar_path(self):
        # A squared distance past the largest float makes d inf and the gain 0,
        # as in evaluate_link: no warning, and every column bit-equal to it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = assert_matches_scalar(builtin_l1(), [(1.0e200, 0.0, 1.0)], "inner")
        assert (columns.h_data[0], columns.snr[0], columns.ber[0]) == (0.0, 0.0, 0.5)

    def test_largest_finite_budget_is_kept(self):
        # Three signal terms of about 5.9e307 each: their sum is still finite.
        columns = assert_matches_scalar(stacked_scenario(2.0e157, 3, DET), [(0.0, 0.0, 1.5)], "a")
        assert math.isfinite(columns.signal_ms_a2[0]) and columns.signal_ms_a2[0] > 1.7e308

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


# Where shared_tag_scenario's lamps sit, so that drawn positions can land on one.
LAMP_SPOTS = ((-0.3, -0.3, 2.5), (-0.3, 0.3, 2.5), (0.3, -0.3, 2.5), (0.3, 0.3, 2.5), (0.0, 0.0, 2.5),
              (0.9, -0.6, 2.4))
NOISY = NoiseParams(background_current_a=5e-4, thermal_a2=1e-12)


class TestPerPositionTags:
    """``evaluate_points`` with one data tag per position."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.0, 2.5)),
                              st.sampled_from(("twin", "odd"))), min_size=1, max_size=12),
           st.booleans(), st.integers(0, 5), st.sampled_from(LAMP_SPOTS),
           st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)), st.sampled_from((30.0, 60.0, 90.0)),
           st.sampled_from((NoiseParams(), NOISY)))
    def test_equals_the_per_tag_calls_and_the_scalar_path(self, drawn, shared, on_lamp, spot, tilt, fov, noise):
        # One list in six puts its last position on a lamp.
        scenario = shared_tag_scenario(Vec3(tilt[0], tilt[1], 1.0).normalized(), fov, noise)
        points = [p for p, _ in drawn[:-1]] + [spot if on_lamp == 0 else drawn[-1][0]]
        tags = [drawn[0][1] if shared else tag for _, tag in drawn]
        try:
            budgets = [evaluate_link(scenario, Vec3(*p), tag) for p, tag in zip(points, tags)]
        except GeometryError:
            with pytest.raises(GeometryError, match="coincide"):
                evaluate_points(scenario, points, tags)
            return
        columns = evaluate_points(scenario, points, tags)
        assert bits(columns.h_data) == bits(b.data_gain(tag) for b, tag in zip(budgets, tags))
        for name in FIELDS:
            assert bits(getattr(columns, name)) == bits(getattr(b, name) for b in budgets), name
        for tag in set(tags):
            mine = [i for i, t in enumerate(tags) if t == tag]
            alone = evaluate_points(scenario, [points[i] for i in mine], tag)
            for name in ("h_data", *FIELDS):
                assert bits(getattr(alone, name)) == bits(getattr(columns, name)[i] for i in mine), name

    def test_blocks_and_sequence_types_do_not_change_the_result(self):
        # 9 lamps put about 900 points in one block; 2000 points span three.
        scenario = builtin_g1()
        points = [(-0.9 + 0.0009 * i, 0.3 - 0.0002 * i, 1.55) for i in range(2000)]
        tags = [scenario.tags()[i % 9] for i in range(2000)]
        whole = evaluate_points(scenario, points, tags)
        assert evaluate_points(scenario, np.array(points), tuple(tags)) == whole
        assert evaluate_points(scenario, points, np.array(tags)) == whole
        for k, tag in enumerate(scenario.tags()):
            assert list(evaluate_points(scenario, points[k::9], tag).ber) == list(whole.ber[k::9])

    @pytest.mark.parametrize("tags", [["nope", "inner"], ("inner", "nope"), np.array(["inner", "nope"])],
                             ids=["list", "tuple", "array"])
    def test_an_unknown_tag_anywhere_raises(self, tags):
        with pytest.raises(TagNotFoundError, match="'nope'"):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0), (0.1, 0.0, 1.0)], tags)

    def test_a_position_on_a_lamp_raises(self):
        with pytest.raises(GeometryError, match="coincide"):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0), (0.16, 0.0, 2.0)], ["inner", "outer-left"])

    @pytest.mark.parametrize("kind", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_the_first_of_two_unknown_tags_is_named(self, kind):
        tags = kind(["inner", "first", "inner", "second"])
        with pytest.raises(TagNotFoundError, match="'first'") as raised:
            evaluate_points(builtin_l1(), [(0.1 * i, 0.0, 1.0) for i in range(4)], tags)
        assert "second" not in str(raised.value)

    @pytest.mark.parametrize("kind", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_an_unknown_tag_is_named_as_the_str_it_equals(self, kind):
        # Under numpy 2 an array's element is an np.str_, whose repr is np.str_('first').
        with pytest.raises(TagNotFoundError, match="^no luminaire carries tag 'first'$"):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0)], kind(["first"]))

    @pytest.mark.parametrize("call", [
        lambda s: evaluate_link(s, Vec3(0.0, 0.0, 1.0), "nope"),
        lambda s: evaluate_grid(s, 0.3, 4, "nope"),
        lambda s: s.luminaires_for("nope"),
        lambda s: link.segments_may_pass(s, "nope", np.zeros((1, 3)), np.ones((1, 3)), 1e-2),
    ], ids=["evaluate_link", "evaluate_grid", "luminaires_for", "segments_may_pass"])
    def test_every_entry_names_an_unknown_tag(self, call):
        with pytest.raises(TagNotFoundError, match="^no luminaire carries tag 'nope'$"):
            call(builtin_l1())

    @pytest.mark.parametrize("tags", [["inner"], ["inner"] * 3, np.array("inner"), np.array([["inner"]] * 2)],
                             ids=["1", "3", "0-d", "n-by-1"])
    def test_one_tag_per_position_or_a_parameter_error(self, tags):
        with pytest.raises(ParameterError, match="one data tag per position"):
            evaluate_points(builtin_l1(), [(0.0, 0.0, 1.0), (0.1, 0.0, 1.0)], tags)


class TestGridColumns:
    def test_luminaire_gains_are_channel_gain_per_pair(self):
        # Entry [i, j] is the scalar gain of lamp j at position i, facing the
        # scenario's receiver axis, upright or tilted.
        for axis in (Vec3(0.0, 0.0, 1.0), Vec3(0.35, -0.2, 0.9).normalized()):
            scenario = shared_tag_scenario(receiver_axis=axis)
            grid = evaluate_grid(scenario, 0.7, 6, "odd")
            z = scenario.room.height_m - 0.7
            points = [(x, y, z) for y in grid.y_centers_m for x in grid.x_centers_m]
            work = np.empty(7 * len(points) * len(scenario.luminaires))
            gains = link._luminaire_gains(scenario, np.array(points), work)
            assert gains.shape == (len(points), len(scenario.luminaires))
            for row, p in zip(gains, points):
                rx = Pose(Vec3(*p), scenario.receiver_axis)
                assert bits(row) == bits(channel_gain(lamp.pose, lamp.emitter, rx, scenario.detector)
                                         for lamp in scenario.luminaires)

    def test_columns_are_row_major(self):
        # L1's lamps lie along x, so a grid with x and y swapped fails this
        # at 50 cm (at 30 cm every cell such a swap moves is out of view).
        scenario = builtin_l1()
        grid = evaluate_grid(scenario, 0.5, 4, "inner")
        nx = len(grid.x_centers_m)
        for iy, y in enumerate(grid.y_centers_m):
            for ix, x in enumerate(grid.x_centers_m):
                budget = evaluate_link(scenario, Vec3(x, y, 2.0 - 0.5), "inner")
                assert grid.columns.ber[iy * nx + ix] == budget.ber

    def test_grids_compare_by_value(self):
        scenario = builtin_g1()
        first = evaluate_grid(scenario, 0.4, 7, "n")
        assert first == evaluate_grid(scenario, 0.4, 7, "n")
        assert first != evaluate_grid(scenario, 0.4, 7, "s")


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


def seeded_ceiling(seed=16):
    """A 16 x 16 ceiling whose 256 lamps share 64 tags; offsets, powers, angles and mod_index seeded."""
    rng = np.random.default_rng(seed)
    tags = [f"t{k}" for k in rng.permutation(256) % 64]
    lamps = [Luminaire(tags[16 * iy + ix],
                       Pose(Vec3(0.25 * ix - 1.875 + float(rng.uniform(-0.05, 0.05)),
                                 0.25 * iy - 1.875 + float(rng.uniform(-0.05, 0.05)), 3.0), DOWN),
                       EmitterModel(power_w=float(rng.uniform(0.5, 2.0)),
                                    semi_angle_deg=float(rng.choice([15.0, 20.0, 30.0, 45.0]))),
                       ModulationParams(mod_index=float(rng.uniform(0.5, 1.0))))
             for iy in range(16) for ix in range(16)]
    return Scenario(room=Room(4.0, 4.0, 3.0), luminaires=tuple(lamps), detector=DET)


class TestLuminaireArrays:
    def test_cached_arrays_carry_no_per_tag_state(self):
        # One Scenario object serves every tag in two orders; each call must
        # still equal the scalar path at every foot of the tag's lamps.
        scenario = seeded_ceiling()
        plane_m = 1.2
        z = scenario.room.height_m - plane_m
        tags = scenario.tags()
        assert len(tags) == 64
        feet = {tag: [(lum.pose.position.x, lum.pose.position.y, z) for lum in scenario.luminaires_for(tag)]
                for tag in tags}
        budgets = {tag: [evaluate_link(scenario, Vec3(*p), tag) for p in feet[tag]] for tag in tags}
        arrays = scenario.luminaire_arrays
        for order in (tags, tags[::-1][1::2] + tags[::-1][::2]):
            for tag in order:
                columns = evaluate_points(scenario, feet[tag], tag)
                expected = budgets[tag]
                assert bits(columns.h_data) == bits(b.data_gain(tag) for b in expected)
                for name in FIELDS:
                    assert bits(getattr(columns, name)) == bits(getattr(b, name) for b in expected), name
                assert bits(foot_bers(scenario, plane_m, tag)) == bits(b.ber for b in expected)
        assert scenario.luminaire_arrays is arrays

    def test_cached_arrays_are_read_only(self):
        arrays = seeded_ceiling().luminaire_arrays
        for f in dataclasses.fields(arrays):
            column = getattr(arrays, f.name)
            assert len(column) == 256
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]


def ceiling8_positions(plane_m, res):
    """The benchmark's seed-1 8 x 8 ceiling (64 lamps, 16 tags) and res x res positions
    over its footprint, plane_m below the ceiling (above it where plane_m is negative)."""
    scenario = load_scenario(workload_documents(1)["ceiling8"])
    room = scenario.room
    xs = (np.arange(res) + 0.5) / res * room.width_m - 0.5 * room.width_m
    ys = (np.arange(res) + 0.5) / res * room.depth_m - 0.5 * room.depth_m
    points = np.column_stack((np.tile(xs, res), np.repeat(ys, res), np.full(res * res, room.height_m - plane_m)))
    return scenario, points


class TestBlockWorkspace:
    """``evaluate_points`` computes every block of positions in one workspace."""

    @pytest.mark.parametrize("per_point", [False, True], ids=["one-tag", "tag-per-position"])
    def test_blocks_do_not_share_stale_values(self, per_point):
        # Positions 1.2 m below the ceiling are lit; the same ones 0.3 m above
        # it, behind every lamp, are dark. The blocks run lit, dark, lit, then
        # a partial last block of both, so each block follows one of the
        # other kind and a value left over from a block would show.
        scenario, below = ceiling8_positions(1.2, 24)
        above = below + (0.0, 0.0, 1.5)
        # 64 lamps put _BLOCK_PAIRS // 64 = _BLOCK_POSITIONS = 128 positions in a block.
        step = 128
        assert link._BLOCK_PAIRS // len(scenario.luminaires) == link._BLOCK_POSITIONS == step
        mixed = np.where(np.arange(step // 2)[:, None] % 2 == 0, below[:step // 2], above[:step // 2])
        points = np.concatenate((below[:step], above[step:2 * step], below[2 * step:3 * step], mixed))
        tag_ids = scenario.tags()
        tags = [tag_ids[i % len(tag_ids)] for i in range(len(points))] if per_point else ["t08"] * len(points)
        columns = evaluate_points(scenario, points, tags if per_point else "t08")
        budgets = [evaluate_link(scenario, Vec3(*p), tag) for p, tag in zip(points.tolist(), tags)]
        assert bits(columns.h_data) == bits(b.data_gain(tag) for b, tag in zip(budgets, tags))
        for name in FIELDS:
            assert bits(getattr(columns, name)) == bits(getattr(b, name) for b in budgets), name
        received = np.array(columns.received_power_w)
        assert (received[:step] > 0.0).all() and (received[2 * step:3 * step] > 0.0).all()
        assert not received[step:2 * step].any() and not received[3 * step + 1::2].any()

    def test_memory_stays_per_block(self):
        # Four times the positions may raise the peak by the size of the
        # added output columns, seven floats a position, and no more: the
        # block arrays do not grow with the batch, as one (positions, lamps)
        # array, 64 floats a position here, would.
        def peak(res):
            scenario, points = ceiling8_positions(1.2, res)
            evaluate_points(scenario, points, "t08")
            tracemalloc.start()
            try:
                evaluate_points(scenario, points, "t08")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64) - peak(32) <= 7 * 8 * (64 * 64 - 32 * 32)


class TestFieldOfViewEdge:
    """The last lit and first dark receiver positions at the field-of-view edge.

    A receiver on the plane z = 1.7 moves along +x, away from a lamp at
    (0, 0, 2); bisection over the lateral offset finds two adjacent floats
    where the scalar gain turns from positive to zero. The kernel must draw
    the edge between the very same two floats.
    """

    @pytest.mark.parametrize("fov_deg, tilt_deg", [(60.0, 0.0), (60.0, 20.0), (90.0, 30.0)],
                             ids=["fov60", "fov60-tilted", "fov90-tilted"])
    def test_both_paths_cut_at_the_same_float(self, fov_deg, tilt_deg):
        tilt = math.radians(tilt_deg)
        axis = Vec3(math.sin(tilt), 0.0, math.cos(tilt))  # tilted toward +x, away from the lamp
        scenario = Scenario(room=Room(4.0, 4.0, 2.0),
                            luminaires=(Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN),
                                                  EmitterModel(power_w=1.0, semi_angle_deg=60.0)),),
                            detector=DetectorModel(area_m2=1e-4, fov_deg=fov_deg, gain=1.3),
                            receiver_axis=axis)

        def gain(x):
            return evaluate_link(scenario, Vec3(x, 0.0, 1.7), "solo").data_gain("solo")

        inside, outside = 0.0, 1.9
        assert gain(inside) > 0.0 and gain(outside) == 0.0
        while math.nextafter(inside, outside) != outside:
            mid = 0.5 * (inside + outside)
            inside, outside = (mid, outside) if gain(mid) > 0.0 else (inside, mid)
        assert gain(inside) > 0.0 and gain(outside) == 0.0
        # The edge is the field of view's: psi there is the semi-angle, to
        # within rounding, and the emitter still faces the receiver.
        lamp = scenario.luminaires[0].pose
        for x in (inside, outside):
            delta = Vec3(x, 0.0, 1.7) - lamp.position
            theta = math.acos(lamp.axis.dot(delta) / delta.norm())
            psi = math.acos(-axis.dot(delta) / delta.norm())
            assert psi == pytest.approx(math.radians(fov_deg), abs=1e-12)
            assert theta < math.radians(80.0)
        columns = assert_matches_scalar(scenario, [(inside, 0.0, 1.7), (outside, 0.0, 1.7)], "solo")
        assert columns.h_data[0] > 0.0 and columns.h_data[1] == 0.0


def fsum_or_inf(row):
    # math.fsum, with inf where the exact sum of finite terms overflows.
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


# Non-negative terms: zeros, the smallest subnormal, other subnormals,
# pairs near the largest float whose sum overflows, inf and nan.
TERM_VALUES = (0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e308, 1.7976931348623157e308, math.inf, math.nan)
terms = st.one_of(st.sampled_from(TERM_VALUES), st.floats(0.0))
# Mostly zeros, so rows with 0, 1, 2 and 3 or more nonzero terms all come up.
sparse_terms = st.one_of(st.just(0.0), st.just(0.0), terms)


@st.composite
def wide_rows(draw):
    """One to three rows of 3 to 400 terms around one drawn binary exponent,
    from subnormal to near the largest float. Either every term has its own
    random mantissa, or each row repeats one value (zero or one of a few
    drawn values) with zeros, repeats and other magnitudes in between. Now
    and then a row holds an inf, a nan or the largest float."""
    count, width = draw(st.integers(1, 3)), draw(st.integers(3, 400))
    center = draw(st.integers(-1074, 1023))
    spread = draw(st.sampled_from((0, 1, 8, 60)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        exponents = np.clip(center + rng.integers(-spread, spread + 1, (count, width)), -1074, 1023)
        rows = np.ldexp(rng.uniform(0.5, 1.0, (count, width)), exponents).tolist()
    else:
        magnitude = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                              st.integers(-spread, spread).map(lambda e: min(max(center + e, -1074), 1023)))
        pool = draw(st.lists(magnitude, min_size=1, max_size=4))
        rows = draw(arrays(float, (count, width), elements=st.one_of(st.just(0.0), st.sampled_from(pool), magnitude),
                           fill=st.one_of(st.just(0.0), st.sampled_from(pool)))).tolist()
    for row in rows:
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, width - 1))] = draw(st.sampled_from((math.inf, math.nan, 1.7976931348623157e308)))
    return rows


@st.composite
def rows_at_the_fsum_switch(draw):
    """A block of rows around ``_row_sums``'s switch from fsum to the extraction.

    Rows of three or more nonzero terms ("many-term" rows), of 3 to 256
    terms each, hold just below, at or just above ``link._FSUM_TERMS`` terms
    in all; a few rows of at most two nonzero terms ride along. Each row's
    terms lie around one drawn binary exponent: subnormal, normal, or so
    large that two of them overflow. Now and then a term is inf or nan."""
    width = draw(st.sampled_from((3, 4, 9, 16, 64, 256)))
    # A switch set past 4,096 terms is read as 4,096, so the block stays small.
    many = max(1, min(link._FSUM_TERMS, 4096) // width + draw(st.sampled_from((-1, 0, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    center = draw(st.sampled_from((-1074, -1060, -1022, -30, 0, 40, 1021, 1023)))
    spread = draw(st.sampled_from((0, 2, 30)))
    exponents = np.clip(center + rng.integers(-spread, spread + 1, (many, width)), -1074, 1023)
    rows = np.ldexp(rng.uniform(0.5, 1.0, (many, width)), exponents)
    rows[rng.random((many, width)) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
    rows[:, :3] = np.where(rows[:, :3] == 0.0, 2.0 ** -1074, rows[:, :3])  # three nonzero terms at least
    rows = rows.tolist()
    for _ in range(draw(st.integers(0, 3))):
        row = [0.0] * width
        for j in rng.choice(width, rng.integers(0, 3), replace=False):
            row[j] = math.ldexp(1.0, int(rng.integers(-1074, 1024)))
        rows.insert(rng.integers(0, len(rows) + 1), row)
    for row in rows:
        if rng.random() < 0.05:
            row[rng.integers(0, width)] = rng.choice((math.inf, math.nan))
    return rows


class TestColumnReductions:
    """Whole-column sums, SNR and BER against their per-element references."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda width: st.lists(
        st.lists(sparse_terms, min_size=width, max_size=width), min_size=1, max_size=12)))
    @example([[1e308, 1e308, 0.0], [1.7976931348623157e308, 5e-324, 0.0], [math.inf, 0.0, math.nan]])
    @example([[5e-324, 5e-324, 5e-324], [1e-310, 1.0, 1e-16]])
    @example([[0.0] * 4, [0.1, 0.0, 0.2, 0.0], [0.0, 0.0, 0.3, 0.0], [0.1, 0.2, 0.3, 1e16]])
    def test_row_sums_are_fsum_bit_for_bit(self, rows):
        assert bits(link._row_sums(np.array(rows, dtype=float))) == bits(map(fsum_or_inf, rows))

    @settings(max_examples=200, deadline=None)
    @given(wide_rows())
    # Half-ulp ties near 1: just above one, exactly one (to even, down and
    # up), and two decided by terms that the low parts' float sum loses.
    @example([[1.0, 2.0 ** -53, 2.0 ** -80, 0.0, 0.0, 0.0, 0.0], [1.0, 2.0 ** -54, 0.0, 2.0 ** -54, 0.0, 0.0, 0.0],
              [1.0 + 2.0 ** -52, 2.0 ** -54, 2.0 ** -54, 0.0, 0.0, 0.0, 0.0],
              [1.0, 2.0 ** -53, 2.0 ** -106, 2.0 ** -106, 0.0, 0.0, 0.0],
              [1.0, 2.0 ** -51, 2.0 ** -53, 2.0 ** -110, 0.0, 0.0, 0.0],
              [1.0, 2.0 ** -51 + 2.0 ** -53 - 2.0 ** -103] + [2.0 ** -105] * 5])
    @example([[5e-324] * 400, [1e-310, 2.2250738585072009e-308, 5e-324] * 133 + [0.0]])
    # At the guards for three terms (2**k = 8) and just outside them.
    @example([[2.0 ** 997] * 3, [math.nextafter(2.0 ** 997, math.inf)] * 3,
              [2.0 ** -800] * 3, [math.nextafter(2.0 ** -800, 0.0)] * 3])
    @example([[0.1] * 400, [2.0 ** 991] * 400, [math.nextafter(2.0 ** 991, math.inf)] + [1.0] * 399])
    @example([[1e308] * 3, [math.inf, 1.0, 1.0], [math.nan, 1.0, 1.0], [1.7976931348623157e308, 1e292, 1e292]])
    def test_wide_row_sums_are_fsum_bit_for_bit(self, rows):
        assert bits(link._row_sums(np.array(rows, dtype=float))) == bits(map(fsum_or_inf, rows))

    @settings(max_examples=150, deadline=None)
    @given(rows_at_the_fsum_switch())
    # 128 many-term rows of four terms fill the switch exactly; 129 pass it.
    # Either block holds a row that overflows, a subnormal row, inf and nan.
    @example([[1e308] * 4, [5e-324] * 4, [math.inf, 1.0, 1.0, 1.0], [math.nan, 1.0, 1.0, 1.0],
              [0.0, 1e308, 0.0, 1e308]] + [[0.1, 0.2, 0.3, 0.4]] * 124)
    @example([[1e308] * 4, [5e-324] * 4, [math.inf, 1.0, 1.0, 1.0], [math.nan, 1.0, 1.0, 1.0],
              [0.0, 1e308, 0.0, 1e308]] + [[0.1, 0.2, 0.3, 0.4]] * 125)
    def test_row_sums_at_the_fsum_switch_are_fsum_bit_for_bit(self, rows):
        # The kernel's lamps-major layout: rows are columns in memory.
        assert bits(link._row_sums(np.asfortranarray(rows, dtype=float))) == bits(map(fsum_or_inf, rows))

    def test_a_dense_ceiling_rarely_falls_back_to_fsum(self, monkeypatch):
        # Nearly every cell of the benchmark's 8 x 8 ceiling at 120 cm sums
        # dozens of lit lamps; the extraction must certify most of those rows.
        scenario = load_scenario(workload_documents(1)["ceiling8"])
        wide, fallbacks = [], []
        row_sums, fsum = link._row_sums, link._fsum_or_inf
        monkeypatch.setattr(link, "_row_sums", lambda terms: wide.append(
            int((np.count_nonzero(terms, axis=1) > 2).sum())) or row_sums(terms))
        monkeypatch.setattr(link, "_fsum_or_inf", lambda row: fallbacks.append(row) or fsum(row))
        for tag in ("t08", "t15"):
            evaluate_grid(scenario, 1.2, 32, tag)
        assert sum(wide) > 4 * 32 * 32
        assert len(fallbacks) < 0.1 * sum(wide)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from((0.0, 5e-324, 1e-310, 1e308)),
                                          st.floats(0.0, allow_infinity=False))] * 3), min_size=1, max_size=12))
    @example([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.0), (1e308, 1e-300, 0.0), (1e-300, 1e300, 1e300)])
    def test_snr_and_ber_columns_are_the_scalar_functions(self, budgets):
        signal, interference, noise = (np.array(c) for c in zip(*budgets))
        snrs, bers = link._snr_and_ber(signal, interference, noise)
        expected = [snr(*budget) for budget in budgets]
        assert bits(snrs) == bits(expected)
        assert bits(bers) == bits(map(ber_bfsk, expected))
        if (1.0, 0.0, 0.0) in budgets:
            assert math.inf in snrs.tolist() and 0.0 in bers.tolist()
