import dataclasses
import math
import re

import pytest

from ledid import (
    DetectorModel,
    EmitterModel,
    Luminaire,
    ParameterError,
    PlaneOutsideRoomError,
    Pose,
    Room,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    TagNotFoundError,
    Vec3,
    builtin_g1,
    builtin_l1,
    builtin_scenario_path,
    evaluate_grid,
    evaluate_link,
    load_scenario,
    load_scenario_file,
    load_scenario_with_defaults,
)

DOWN = Vec3(0.0, 0.0, -1.0)

MINIMAL_DOC = """
room:
  width_m: 2.0
  depth_m: 2.0
  height_m: 2.0
luminaire:
  - tag: solo
    x_m: 0.0
    y_m: 0.0
    z_m: 2.0
    power_w: 1.0
    semi_angle_deg: 20.0
detector:
  area_m2: 1.0e-4
  fov_deg: 60.0
  gain: 1.3
"""


# (text in MINIMAL_DOC, its replacement, path of the key whose constraint fails)
CONSTRAINT_CASES = [
    ("width_m: 2.0", "width_m: 0.0", "room.width_m"),
    ("depth_m: 2.0", "depth_m: -1.0", "room.depth_m"),
    ("height_m: 2.0", "height_m: .nan", "room.height_m"),
    ("power_w: 1.0", "power_w: 0.0", "luminaire[0].power_w"),
    ("power_w: 1.0", "power_w: 1.0\n    mod_index: 1.5", "luminaire[0].mod_index"),
    ("power_w: 1.0", "power_w: 1.0\n    baseband_power: 0.0", "luminaire[0].baseband_power"),
    ("area_m2: 1.0e-4", "area_m2: 0.0", "detector.area_m2"),
    ("gain: 1.3", "gain: -1.3", "detector.gain"),
    ("gain: 1.3", "gain: 1.3\n  responsivity_a_per_w: 0.0", "detector.responsivity_a_per_w"),
    ("gain: 1.3", "gain: 1.3\n  bandwidth_hz: 0.0", "detector.bandwidth_hz"),
    ("gain: 1.3", "gain: 1.3\nnoise:\n  background_current_a: -1.0e-3", "noise.background_current_a"),
    ("gain: 1.3", "gain: 1.3\nnoise:\n  i2: .nan", "noise.i2"),
    ("gain: 1.3", "gain: 1.3\nnoise:\n  thermal_a2: -1.0e-12", "noise.thermal_a2"),
    ("gain: 1.3", "gain: 1.3\nnoise:\n  isi_a2: -1.0", "noise.isi_a2"),
    ("x_m: 0.0", "x_m: .nan", "luminaire[0]"),
]


def single_lamp_scenario(room=Room(2.0, 2.0, 2.0)):
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    return Scenario(
        room=room,
        luminaires=(Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN), emitter),),
        detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3),
    )


class TestBuiltins:
    def test_l1_layout(self):
        scenario = builtin_l1()
        assert len(scenario.luminaires) == 3
        assert scenario.tags() == ("outer-left", "inner", "outer-right")
        xs = [lum.pose.position.x for lum in scenario.luminaires]
        assert xs == [-0.16, 0.0, 0.16]
        spacings = [abs(b - a) for a, b in zip(xs, xs[1:])]
        assert spacings == pytest.approx([0.16, 0.16], abs=1e-15)
        for lum in scenario.luminaires:
            assert lum.emitter.power_w == 1.0
            assert lum.emitter.semi_angle_deg == 20.0
            assert lum.emitter.lambertian_order == pytest.approx(11.1434, abs=1e-4)
        det = scenario.detector
        assert (det.area_m2, det.fov_deg, det.gain) == (1e-4, 60.0, 1.3)
        assert scenario.room == Room(2.0, 2.0, 2.0)

    def test_g1_layout(self):
        scenario = builtin_g1()
        assert len(scenario.luminaires) == 9
        assert len(set(scenario.tags())) == 9
        positions = {(lum.pose.position.x, lum.pose.position.y) for lum in scenario.luminaires}
        assert positions == {(i * 0.16, j * 0.16) for i in (-1, 0, 1) for j in (-1, 0, 1)}
        center = next(l for l in scenario.luminaires if l.tag == "center").pose.position
        corner = next(l for l in scenario.luminaires if l.tag == "nw").pose.position
        assert (corner - center).norm() == pytest.approx(0.16 * math.sqrt(2.0), rel=1e-12)
        assert (corner - center).norm() == pytest.approx(0.2263, abs=5e-5)


class TestLoader:
    def test_minimal_document_applies_defaults(self):
        scenario, applied = load_scenario_with_defaults(MINIMAL_DOC)
        assert len(scenario.luminaires) == 1
        assert scenario.noise.background_current_a == 0.0
        assert scenario.noise.i2 == 0.56
        assert scenario.noise.thermal_a2 == 0.0
        assert scenario.noise.isi_a2 == 0.0
        assert scenario.detector.responsivity_a_per_w == 0.54
        assert scenario.detector.bandwidth_hz == 1e4
        lum = scenario.luminaires[0]
        assert lum.modulation.mod_index == 1.0
        assert lum.modulation.baseband_power == 0.5
        assert "detector.responsivity_a_per_w" in applied
        assert "noise.background_current_a" in applied

    def test_shipped_l1_round_trips_to_builtin(self):
        assert load_scenario_file(builtin_scenario_path("l1")) == builtin_l1()

    def test_shipped_g1_round_trips_to_builtin(self):
        assert load_scenario_file(builtin_scenario_path("g1")) == builtin_g1()

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_bytes(b"\xff" + MINIMAL_DOC.encode("utf-8"))
        with pytest.raises(ScenarioParseError, match="byte 0xff at position 0"):
            load_scenario_file(path)

    def test_luminaire_outside_room_is_rejected(self):
        doc = MINIMAL_DOC.replace("x_m: 0.0", "x_m: 1.5")
        with pytest.raises(ScenarioValidationError, match=r"luminaire\[0\]"):
            load_scenario(doc)

    def test_unknown_key_is_rejected_with_its_path(self):
        doc = MINIMAL_DOC.replace("power_w: 1.0", "powr_w: 1.0\n    power_w: 1.0")
        with pytest.raises(ScenarioParseError, match=r"luminaire\[0\].*powr_w"):
            load_scenario(doc)

    def test_unknown_top_level_key_is_rejected(self):
        with pytest.raises(ScenarioParseError, match="receiver"):
            load_scenario(MINIMAL_DOC + "\nreceiver:\n  foo: 1\n")

    def test_missing_required_key_is_named(self):
        doc = MINIMAL_DOC.replace("  fov_deg: 60.0\n", "")
        with pytest.raises(ScenarioParseError, match="detector.fov_deg"):
            load_scenario(doc)

    def test_wrong_type_is_a_parse_error(self):
        doc = MINIMAL_DOC.replace("power_w: 1.0", "power_w: strong")
        with pytest.raises(ScenarioParseError, match="luminaire"):
            load_scenario(doc)
        doc = MINIMAL_DOC.replace("tag: solo", "tag: 7")
        with pytest.raises(ScenarioParseError, match="tag"):
            load_scenario(doc)

    def test_fov_out_of_range_names_the_key(self):
        doc = MINIMAL_DOC.replace("fov_deg: 60.0", "fov_deg: 120.0")
        with pytest.raises(ScenarioValidationError, match="detector.fov_deg"):
            load_scenario(doc)

    def test_semi_angle_out_of_range_names_the_key(self):
        doc = MINIMAL_DOC.replace("semi_angle_deg: 20.0", "semi_angle_deg: 90.0")
        with pytest.raises(ScenarioValidationError, match="semi_angle_deg"):
            load_scenario(doc)

    def test_empty_luminaire_list_is_rejected(self):
        doc = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire: []
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
"""
        with pytest.raises(ScenarioParseError, match="luminaire"):
            load_scenario(doc)

    def test_invalid_yaml_is_a_parse_error(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("room: [unclosed")
        with pytest.raises(ScenarioParseError):
            load_scenario("just a string")

    def test_duplicate_tags_are_allowed(self):
        doc = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: twin, x_m: -0.2, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: twin, x_m: 0.2, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
"""
        scenario = load_scenario(doc)
        assert scenario.tags() == ("twin",)
        assert len(scenario.luminaires_for("twin")) == 2

    @pytest.mark.parametrize("doc, message", [
        (MINIMAL_DOC.replace("room:\n  width_m: 2.0\n  depth_m: 2.0\n  height_m: 2.0\n", ""),
         "room: missing required section"),
        (MINIMAL_DOC.replace("room:\n  width_m: 2.0\n  depth_m: 2.0\n  height_m: 2.0\n", "room: 5\n"),
         "room: expected a mapping"),
        (MINIMAL_DOC.replace("luminaire:\n", "luminaire:\n  - 5\n"), "luminaire[0]: expected a mapping"),
    ], ids=["missing-room", "scalar-room", "scalar-luminaire"])
    def test_section_shape_is_named(self, doc, message):
        assert doc != MINIMAL_DOC
        with pytest.raises(ScenarioParseError, match="^" + re.escape(message) + "$"):
            load_scenario(doc)

    def test_unknown_shipped_scenario(self):
        with pytest.raises(ParameterError, match="^no shipped scenario named 'nope'$"):
            builtin_scenario_path("nope")

    @pytest.mark.parametrize("old, new, path", CONSTRAINT_CASES,
                             ids=[path for _, _, path in CONSTRAINT_CASES])
    def test_each_constraint_is_reported_at_its_key_path(self, old, new, path):
        doc = MINIMAL_DOC.replace(old, new)
        assert doc != MINIMAL_DOC
        with pytest.raises(ScenarioValidationError, match="^" + re.escape(path) + ":"):
            load_scenario(doc)


class TestScenarioInvariants:
    def test_empty_luminaires_rejected(self):
        with pytest.raises(ScenarioValidationError):
            Scenario(room=Room(2, 2, 2), luminaires=(),
                     detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3))

    def test_out_of_room_luminaire_rejected(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        with pytest.raises(ScenarioValidationError):
            Scenario(room=Room(2, 2, 2),
                     luminaires=(Luminaire("x", Pose(Vec3(1.5, 0, 2.0), DOWN), emitter),),
                     detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3))

    def test_receiver_axis_must_be_unit(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        with pytest.raises(ScenarioValidationError, match="^receiver axis must be a unit vector$"):
            Scenario(room=Room(2, 2, 2),
                     luminaires=(Luminaire("x", Pose(Vec3(0, 0, 2.0), DOWN), emitter),),
                     detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3),
                     receiver_axis=Vec3(0.0, 0.0, 2.0))

    def test_empty_tag_rejected(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        with pytest.raises(ScenarioValidationError):
            Scenario(room=Room(2, 2, 2),
                     luminaires=(Luminaire("", Pose(Vec3(0, 0, 2.0), DOWN), emitter),),
                     detector=DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3))


def cell(grid, iy, ix):
    """Cell ``(x_centers_m[ix], y_centers_m[iy])`` of every column, in field order."""
    i = iy * len(grid.x_centers_m) + ix
    return tuple(getattr(grid.columns, f.name)[i] for f in dataclasses.fields(grid.columns))


class TestGridSpec:
    """The grid ``evaluate_grid`` is given: a plane distance and a resolution."""

    def test_validation(self):
        scenario = builtin_l1()
        for resolution in (1, True, 2.0):
            with pytest.raises(ParameterError, match="resolution must be an integer >= 2"):
                evaluate_grid(scenario, 0.3, resolution, "inner")
        # Room.plane_z is the one rule for a plane distance: (0, height_m].
        for plane_m in (0.0, -0.0, math.nan):
            message = f"plane distance must be in (0, 2.0] m, got {plane_m}"
            with pytest.raises(PlaneOutsideRoomError, match=re.escape(message)):
                evaluate_grid(scenario, plane_m, 4, "inner")
        with pytest.raises(TagNotFoundError):
            evaluate_grid(scenario, 0.0, 1, "nope")


class TestEvaluateGrid:
    def test_unknown_tag(self):
        with pytest.raises(TagNotFoundError):
            evaluate_grid(builtin_l1(), 0.3, 4, "nope")

    def test_ranges_must_fit_the_room(self):
        # A grid spans the room's footprint, so only its plane can leave the room.
        scenario = builtin_l1()
        message = "plane distance must be in (0, 2.0] m, got 2.5"
        with pytest.raises(PlaneOutsideRoomError, match=re.escape(message)):
            evaluate_grid(scenario, 2.5, 4, "inner")
        grid = evaluate_grid(scenario, 2.0, 4, "inner")  # the floor
        assert grid.plane_distance_m == 2.0 and len(grid.columns.ber) == 16

    def test_spans_a_non_square_room(self):
        # x follows width_m and y follows depth_m, at the centers of
        # ``resolution`` equal cells per axis.
        grid = evaluate_grid(single_lamp_scenario(Room(2.0, 3.0, 2.0)), 0.3, 4, "solo")
        assert grid.x_centers_m == (-0.75, -0.25, 0.25, 0.75)
        assert grid.y_centers_m == (-1.125, -0.375, 0.375, 1.125)
        assert len(grid.columns.ber) == 16

    def test_two_by_two_corners_identical_for_centered_lamp(self):
        scenario = single_lamp_scenario()
        grid = evaluate_grid(scenario, 0.3, 2, "solo")
        bers = list(grid.columns.ber)
        assert len(bers) == 4
        assert bers[0] == bers[1] == bers[2] == bers[3]

    def test_cell_value_matches_direct_link_evaluation(self):
        scenario = builtin_l1()
        grid = evaluate_grid(scenario, 0.3, 8, "outer-left")
        iy, ix = 3, 2
        direct = evaluate_link(
            scenario,
            Vec3(grid.x_centers_m[ix], grid.y_centers_m[iy], 2.0 - 0.3),
            "outer-left",
        )
        assert cell(grid, iy, ix) == (direct.data_gain("outer-left"), direct.received_power_w,
                                      direct.signal_ms_a2, direct.interference_ms_a2,
                                      direct.noise_variance_a2, direct.snr, direct.ber)

    def test_deterministic_across_runs(self):
        scenario = builtin_l1()
        first = evaluate_grid(scenario, 0.4, 12, "outer-left")
        again = evaluate_grid(scenario, 0.4, 12, "outer-left")
        assert first == again

    def test_mirror_symmetry_about_the_lamp_line(self):
        scenario = builtin_l1()
        grid = evaluate_grid(scenario, 0.3, 10, "outer-left")
        n = 10
        for iy in range(n):
            for ix in range(n):
                a = iy * n + ix
                b = (n - 1 - iy) * n + ix
                assert grid.columns.ber[a] == grid.columns.ber[b]
                assert grid.columns.snr[a] == grid.columns.snr[b]

    def test_g1_center_tag_four_fold_symmetry(self):
        scenario = builtin_g1()
        n = 8
        grid = evaluate_grid(scenario, 0.3, n, "center")
        ber = grid.columns.ber
        for iy in range(n):
            for ix in range(n):
                value = ber[iy * n + ix]
                assert value == ber[iy * n + n - 1 - ix]
                assert value == ber[(n - 1 - iy) * n + ix]
                assert value == ber[ix * n + iy]

    def test_refinement_preserves_coincident_centers(self):
        # Tripling the resolution reproduces every coarse center exactly
        # (center sampling: fine column 3 i + 1 lands on coarse column i),
        # so refinement never changes sampled values.
        scenario = builtin_l1()
        coarse = evaluate_grid(scenario, 0.3, 5, "outer-left")
        fine = evaluate_grid(scenario, 0.3, 15, "outer-left")
        for i, x in enumerate(coarse.x_centers_m):
            assert fine.x_centers_m[3 * i + 1] == x
        for iy in range(5):
            for ix in range(5):
                assert cell(coarse, iy, ix) == cell(fine, 3 * iy + 1, 3 * ix + 1)

    def test_foot_ber_band_at_fifty_cm(self):
        # At the 50 cm plane the outer tag is unreadable under its lamp.
        scenario = builtin_l1()
        budget = evaluate_link(scenario, Vec3(-0.16, 0.0, 1.5), "outer-left")
        assert budget.ber >= 3e-2
