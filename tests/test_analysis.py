import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bench_documents import bench_gen
from ledid import analysis
from ledid import (
    DetectorModel,
    ELECTRON_CHARGE_C,
    EmitterModel,
    GeometryError,
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
    critical_overlap_distance,
    evaluate_link,
    evaluate_points,
    load_scenario,
    resolvability,
    scenario_critical_distance,
)
from ledid.analysis import foot_bers
from ledid.link import segments_may_pass

DOWN = Vec3(0.0, 0.0, -1.0)

DET = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3)


def single_lamp_scenario(noise=NoiseParams()):
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    return Scenario(
        room=Room(2.0, 2.0, 2.0),
        luminaires=(Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN), emitter),),
        detector=DET,
        noise=noise,
    )


def solve_background_current_for_crossing(distance_m):
    """Ambient current that puts the 1e-2 error rate exactly at ``distance_m``.

    Independent inversion of the single-source chain:
    snr = (R h P)^2 E / (2 q R h P B + 2 q I_bg I2 B), target snr = 2 ln 50.
    """
    m = -math.log(2.0) / math.log(math.cos(math.radians(20.0)))
    h = (m + 1.0) * 1e-4 * 1.3 / (2.0 * math.pi * distance_m ** 2)
    q = ELECTRON_CHARGE_C
    target = 2.0 * math.log(50.0)
    signal_ms = (0.54 * h * 1.0) ** 2 * 0.5
    required_noise = signal_ms / target
    signal_shot = 2.0 * q * 0.54 * h * 1e4
    return (required_noise - signal_shot) / (2.0 * q * 0.56 * 1e4)


class TestCriticalOverlap:
    def test_sixteen_cm_at_twenty_degrees(self):
        value = critical_overlap_distance(0.16, 20.0)
        assert value == pytest.approx(0.16 / math.tan(math.radians(20.0)), rel=1e-15)
        assert value == pytest.approx(0.4396, abs=1e-4)

    def test_forty_five_degrees_is_identity(self):
        assert critical_overlap_distance(0.16, 45.0) == pytest.approx(0.16, rel=1e-12)

    @pytest.mark.parametrize("bad_angle", [0.0, 90.0, 95.0, -10.0])
    def test_invalid_semi_angle(self, bad_angle):
        with pytest.raises(ParameterError):
            critical_overlap_distance(0.16, bad_angle)

    def test_invalid_spacing(self):
        with pytest.raises(ParameterError):
            critical_overlap_distance(0.0, 20.0)

    def test_semi_angle_rule_is_the_emitters(self):
        with pytest.raises(ParameterError, match=r"^semi_angle_deg: must be in \(0, 90\) degrees, got 95.0$"):
            critical_overlap_distance(0.16, 95.0)

    def test_linear_in_spacing(self):
        for spacing in (0.05, 0.16, 0.73):
            assert critical_overlap_distance(2.0 * spacing, 20.0) == \
                2.0 * critical_overlap_distance(spacing, 20.0)

    def test_scenario_critical_distance(self):
        assert scenario_critical_distance(builtin_l1()) == pytest.approx(0.4396, abs=1e-4)
        assert math.isinf(scenario_critical_distance(single_lamp_scenario()))


class TestResolvability:
    def test_l1_all_tags_resolvable_at_thirty_cm(self):
        report = resolvability(builtin_l1(), 0.30, threshold=1e-2)
        assert all(entry.resolvable for entry in report.tags)
        assert [entry.tag_id for entry in report.tags] == ["outer-left", "inner", "outer-right"]
        outer = report.tags[0]
        assert outer.min_ber_under_lamp < 1e-6
        assert report.critical_overlap_distance_m == pytest.approx(0.4396, abs=1e-4)

    def test_l1_outer_tags_flip_between_forty_and_fifty_cm(self):
        at_40 = resolvability(builtin_l1(), 0.40, threshold=1e-2)
        at_50 = resolvability(builtin_l1(), 0.50, threshold=1e-2)
        by_tag_40 = {e.tag_id: e for e in at_40.tags}
        by_tag_50 = {e.tag_id: e for e in at_50.tags}
        for tag in ("outer-left", "outer-right"):
            assert by_tag_40[tag].resolvable
            assert not by_tag_50[tag].resolvable

    def test_monotone_in_threshold(self):
        strict = resolvability(builtin_l1(), 0.45, threshold=1e-3)
        loose = resolvability(builtin_l1(), 0.45, threshold=5e-2)
        for a, b in zip(strict.tags, loose.tags):
            if a.resolvable:
                assert b.resolvable

    def test_single_lamp_resolvable_at_any_plane(self):
        scenario = single_lamp_scenario()
        for plane in (0.05, 0.5, 1.0, 2.0):
            report = resolvability(scenario, plane, threshold=1e-2)
            assert report.tags[0].resolvable
        assert math.isinf(report.critical_overlap_distance_m)

    def test_g1_every_tag_resolvable_at_thirty_cm(self):
        report = resolvability(builtin_g1(), 0.30, threshold=1e-2)
        assert len(report.tags) == 9
        assert all(entry.resolvable for entry in report.tags)

    def test_plane_bounds(self):
        with pytest.raises(ParameterError):
            resolvability(builtin_l1(), 0.0)
        with pytest.raises(ParameterError):
            resolvability(builtin_l1(), 2.5)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ParameterError, match=r"^threshold must be positive, got 0.0$"):
            resolvability(builtin_l1(), 0.3, threshold=0.0)


def per_tag_resolvability(scenario, plane_m, threshold=1e-2):
    """(tag, hex of the lowest foot error rate, resolvable) per tag, from one foot_bers call per tag."""
    rows = []
    for tag in scenario.tags():
        best = min(foot_bers(scenario, plane_m, tag))
        rows.append((tag, best.hex(), best <= threshold))
    return rows


def generated_ceiling(n, seed):
    # The benchmark's n x n ceilings: 8 x 8 at 0.4 m with 16 tags, 16 x 16 at 0.5 m with 64.
    pitch, tags = {8: (0.4, 16), 16: (0.5, 64)}[n]
    return load_scenario(bench_gen().ceiling(f"ceiling-{n}x{n}", n, pitch, tags, random.Random(seed)))


class TestResolvabilityInOneBatch:
    """``resolvability``'s one kernel call against one ``foot_bers`` call per tag."""

    @staticmethod
    def assert_matches(scenario, plane_m):
        report = resolvability(scenario, plane_m)
        got = [(e.tag_id, e.min_ber_under_lamp.hex(), e.resolvable) for e in report.tags]
        assert got == per_tag_resolvability(scenario, plane_m)
        assert report.critical_overlap_distance_m == scenario_critical_distance(scenario)

    @pytest.mark.parametrize("make", [builtin_l1, builtin_g1], ids=["l1", "g1"])
    @pytest.mark.parametrize("plane_m", [0.3, 0.4, 0.5])
    def test_shipped_layouts(self, make, plane_m):
        self.assert_matches(make(), plane_m)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_ceilings(self, n, seed):
        scenario = generated_ceiling(n, seed)
        assert len(scenario.luminaires) == n * n
        for plane_m in (0.6, 0.9, 1.2, 1.5):
            self.assert_matches(scenario, plane_m)


class TestCoverage:
    def test_unknown_tag(self):
        with pytest.raises(TagNotFoundError):
            coverage(builtin_l1(), "nope")

    def test_unbounded_sentinel_without_noise_or_interference(self):
        report = coverage(single_lamp_scenario(), "solo")
        assert math.isinf(report.max_reliable_distance_m)
        assert report.max_reliable_angle_deg == 90.0

    def test_distance_strictly_decreasing_in_background_current(self):
        distances = [
            coverage(single_lamp_scenario(NoiseParams(background_current_a=ibg)), "solo")
            .max_reliable_distance_m
            for ibg in (0.0, 10e-6, 100e-6, 1e-3)
        ]
        assert math.isinf(distances[0])
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_constructed_crossing_at_two_and_a_half_meters(self):
        ibg = solve_background_current_for_crossing(2.5)
        scenario = single_lamp_scenario(NoiseParams(background_current_a=ibg))
        # The construction itself puts the threshold at 2.5 m.
        at_crossing = evaluate_link(scenario, Vec3(0.0, 0.0, -0.5), "solo").ber
        assert at_crossing == pytest.approx(1e-2, rel=1e-9)
        report = coverage(scenario, "solo", threshold=1e-2)
        assert report.max_reliable_distance_m == pytest.approx(2.5, abs=1.1e-3)

    def test_bisection_postcondition(self):
        ibg = solve_background_current_for_crossing(2.5)
        scenario = single_lamp_scenario(NoiseParams(background_current_a=ibg))
        report = coverage(scenario, "solo", threshold=1e-2)
        d = report.max_reliable_distance_m

        def ber_on_axis(distance):
            return evaluate_link(scenario, Vec3(0.0, 0.0, 2.0 - distance), "solo").ber

        assert ber_on_axis(d) <= 1e-2
        assert ber_on_axis(d + 2e-3) > 1e-2

    def test_angle_postcondition(self):
        ibg = solve_background_current_for_crossing(2.5)
        scenario = single_lamp_scenario(NoiseParams(background_current_a=ibg))
        report = coverage(scenario, "solo", threshold=1e-2)
        radius = 0.5 * report.max_reliable_distance_m
        angle = report.max_reliable_angle_deg
        assert 0.0 < angle < 90.0

        def ber_at_angle(angle_deg):
            a = math.radians(angle_deg)
            position = Vec3(radius * math.sin(a), 0.0, 2.0 - radius * math.cos(a))
            return evaluate_link(scenario, position, "solo").ber

        assert ber_at_angle(angle) <= 1e-2
        assert ber_at_angle(angle + 0.2) > 1e-2

    def test_multi_lamp_scan_path(self):
        # Interference bounds the outer tag of the three-lamp line a little
        # past the 40 cm plane, where its foot error rate reaches 1e-2.
        report = coverage(builtin_l1(), "outer-left", threshold=1e-2)
        d = report.max_reliable_distance_m
        assert 0.40 < d < 0.42

        def ber_on_axis(distance):
            return evaluate_link(builtin_l1(), Vec3(-0.16, 0.0, 2.0 - distance), "outer-left").ber

        assert ber_on_axis(d) <= 1e-2
        assert ber_on_axis(d + 2e-3) > 1e-2

    def test_hopeless_noise_gives_zero_distance(self):
        scenario = single_lamp_scenario(NoiseParams(background_current_a=1e18))
        report = coverage(scenario, "solo", threshold=1e-2)
        assert report.max_reliable_distance_m == 0.0
        assert report.max_reliable_angle_deg == 0.0

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            coverage(builtin_l1(), "inner", threshold=0.0)

    def test_right_angle_probe_that_passes(self):
        # A second lamp of the tag, 0.8 m aside and 1 m higher, lights the
        # point 90 degrees off the first lamp's axis at half the distance.
        lamps = (Luminaire("a", Pose(Vec3(0.0, 0.0, 2.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=30.0)),
                 Luminaire("a", Pose(Vec3(0.8, 0.0, 3.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=30.0)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET,
                            noise=NoiseParams(background_current_a=5e-4, thermal_a2=5e-12))
        report = coverage(scenario, "a")
        assert (report.max_reliable_distance_m, report.max_reliable_angle_deg) == (2.84625, 90.0)


class KernelCalls:
    """Stand-in for ``evaluate_points`` in ``analysis`` that records every position it is given."""

    def __init__(self):
        self.positions = []

    def __call__(self, scenario, positions, tag_id):
        self.positions.append(np.asarray(positions, dtype=float))
        return evaluate_points(scenario, positions, tag_id)


class TestProbesEvaluatedOnce:
    """A coverage query evaluates each probe once: ladder step 1 only in the ladder's
    batch, and a ray read past the ladder's end brackets from 200 m, not 100 m again."""

    def test_l1_query_takes_eight_kernel_calls(self, monkeypatch):
        calls = KernelCalls()
        monkeypatch.setattr(analysis, "evaluate_points", calls)
        coverage(builtin_l1(), "inner")
        assert len(calls.positions) == 8

    @pytest.mark.parametrize("scenario, tag", [
        (builtin_l1(), "inner"),
        # A lone lamp with little noise reads to about 1.8 km.
        (single_lamp_scenario(NoiseParams(thermal_a2=1e-22)), "solo"),
    ], ids=["l1", "past-the-ladder"])
    def test_no_position_is_evaluated_twice(self, monkeypatch, scenario, tag):
        calls = KernelCalls()
        monkeypatch.setattr(analysis, "evaluate_points", calls)
        coverage(scenario, tag)
        positions = np.concatenate(calls.positions)
        assert len(np.unique(positions, axis=0)) == len(positions)

    def test_failing_step_one_reads_zero_past_an_overflowing_step(self):
        # The noise fails step 1; a 1e160 W interferer aimed across the ray
        # overflows the budget of ladder steps further down.
        lamps = (Luminaire("t", Pose(Vec3(0.0, 0.0, 3.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=20.0)),
                 Luminaire("x", Pose.aimed(Vec3(1.5, 0.0, 3.0), Vec3(-1.5, 0.0, 1.0)),
                           EmitterModel(power_w=1e160, semi_angle_deg=20.0)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET,
                            noise=NoiseParams(thermal_a2=1e3))
        with pytest.raises(ParameterError, match="interference is not finite"):
            evaluate_points(scenario, [(0.0, 0.0, 3.0 - 0.01 * step) for step in range(1, 200)], "t")
        report = coverage(scenario, "t")
        assert (report.max_reliable_distance_m, report.max_reliable_angle_deg) == (0.0, 0.0)

    def test_overflow_at_step_one_is_named(self):
        lamp = Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN), EmitterModel(power_w=1e160, semi_angle_deg=20.0))
        scenario = Scenario(room=Room(2.0, 2.0, 2.0), luminaires=(lamp,), detector=DET,
                            noise=NoiseParams(thermal_a2=1e-7))
        with pytest.raises(ParameterError, match="^link budget overflows: signal is not finite"):
            coverage(scenario, "solo")


class TestProbeOnALamp:
    """A coverage probe that lands exactly on a luminaire fails instead of aborting."""

    def test_ladder_through_a_lower_lamp(self):
        # Ladder step 100 (1.0 m down from the top lamp) is the low lamp.
        lamps = (Luminaire("top", Pose(Vec3(0.0, 0.0, 3.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=20.0)),
                 Luminaire("low", Pose(Vec3(0.0, 0.0, 2.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=20.0)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET)
        with pytest.raises(GeometryError):
            evaluate_link(scenario, Vec3(0.0, 0.0, 3.0 - 100 * 0.01), "top")
        report = coverage(scenario, "top")
        # Between the lamps nothing interferes and nothing is noise; past
        # the low lamp its light drowns the top one.
        assert 0.999 <= report.max_reliable_distance_m < 1.0
        assert evaluate_link(scenario, Vec3(0.0, 0.0, 3.0 - report.max_reliable_distance_m), "top").ber <= 1e-2
        assert evaluate_link(scenario, Vec3(0.0, 0.0, 3.0 - 1.01), "top").ber > 1e-2

    def test_right_angle_probe_on_the_next_lamp(self):
        # An up-facing lamp on the ceiling at the outer-left tag's 90 degree
        # probe lights no probe below it, so the distance stays; the probe on
        # it has no link budget and fails.
        l1 = builtin_l1()
        distance = coverage(l1, "outer-left").max_reliable_distance_m
        a = math.radians(90.0)
        direction = Vec3(0.0, 0.0, -1.0).scaled(math.cos(a)) + Vec3(1.0, 0.0, 0.0).scaled(math.sin(a))
        probe = Vec3(-0.16, 0.0, 2.0) + direction.scaled(0.5 * distance)
        lamp = Luminaire("up", Pose(probe, Vec3(0.0, 0.0, 1.0)), EmitterModel(power_w=1.0, semi_angle_deg=60.0))
        scenario = dataclasses.replace(l1, luminaires=l1.luminaires + (lamp,))
        with pytest.raises(GeometryError):
            evaluate_link(scenario, probe, "outer-left")
        report = coverage(scenario, "outer-left")
        assert report.max_reliable_distance_m == distance
        assert 0.0 < report.max_reliable_angle_deg < 90.0


def ladder_probes(scenario, tag):
    """Positions at distances ``d`` down the boresight of the tag's first lamp."""
    lamp = scenario.luminaires_for(tag)[0]
    origin, axis = lamp.pose.position, lamp.pose.axis
    return lambda d: np.column_stack([origin.x + d * axis.x, origin.y + d * axis.y, origin.z + d * axis.z])


def ladder_passing(scenario, tag, threshold=1e-2, step=0.01, steps=10_000):
    """Distances of the whole ladder and which of its steps pass, in one batch."""
    d = np.arange(1, steps + 1) * step
    return d, np.array(evaluate_points(scenario, ladder_probes(scenario, tag)(d), tag).ber) <= threshold


def ladder_scan_distance(scenario, tag, threshold=1e-2, step=0.01, steps=10_000):
    """Coverage distance by the 1 cm ladder alone: the last passing step.

    0.0 when the first step already fails, inf when the last step passes.
    """
    d, passing = ladder_passing(scenario, tag, threshold, step, steps)
    if not passing[0]:
        return 0.0
    if passing[-1]:
        return math.inf
    return float(d[np.flatnonzero(passing)[-1]])


def assert_agrees_with_the_ladder(scenario, tag):
    distance = coverage(scenario, tag).max_reliable_distance_m
    expected = ladder_scan_distance(scenario, tag)
    if expected == 0.0:
        assert distance == expected
    elif math.isinf(expected):
        assert distance > 100.0
    else:
        assert expected <= distance <= expected + 0.01


lamp_layouts = st.lists(
    st.tuples(
        st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),                   # position on the ceiling
        st.one_of(st.none(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))),  # aim on the floor
        st.floats(0.2, 3.0), st.floats(10.0, 60.0),                   # power_w, semi_angle_deg
    ),
    min_size=2, max_size=4,
)


class TestSharedTagCoverage:
    """Several lamps on one tag and no interferers.

    The error rate along the first lamp's boresight need not be monotone
    then, so the coverage answer must be the ladder scan's, within its step.
    """

    def test_spotlight_across_the_ray(self):
        # A strong narrow lamp aimed 2.5 m down the first lamp's axis: the
        # error rate there falls below the threshold again, after the first
        # crossing at about 0.4 m.
        lamps = (Luminaire("t", Pose(Vec3(0.0, 0.0, 3.0), DOWN), EmitterModel(power_w=0.2, semi_angle_deg=20.0)),
                 Luminaire("t", Pose.aimed(Vec3(1.0, 0.0, 3.0), Vec3(0.0, 0.0, 0.5)),
                           EmitterModel(power_w=3.0, semi_angle_deg=10.0)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET,
                            noise=NoiseParams(thermal_a2=2e-9))
        assert 2.5 < ladder_scan_distance(scenario, "t") < 3.0
        assert_agrees_with_the_ladder(scenario, "t")

    def test_reach_past_the_ladder(self):
        # Two 1 W lamps 0.5 m apart with almost no noise reach about 159 m:
        # the search goes on past the ladder's 100 m end.
        lamps = tuple(Luminaire("t", Pose(Vec3(x, 0.0, 3.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=60.0))
                      for x in (0.0, 0.5))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET,
                            noise=NoiseParams(thermal_a2=1e-19))
        d = coverage(scenario, "t").max_reliable_distance_m
        assert 150.0 < d < 170.0

        def ber_on_axis(distance):
            return evaluate_link(scenario, Vec3(0.0, 0.0, 3.0 - distance), "t").ber

        assert ber_on_axis(d) <= 1e-2
        assert ber_on_axis(d + 2e-3) > 1e-2

    @settings(max_examples=20, deadline=None)
    @given(lamp_layouts, st.floats(-13.0, -8.0))
    def test_agrees_with_the_ladder(self, layout, log_thermal):
        lamps = []
        for x, y, aim, power, semi in layout:
            pose = Pose(Vec3(x, y, 3.0), DOWN) if aim is None else Pose.aimed(Vec3(x, y, 3.0), Vec3(*aim, 0.0))
            lamps.append(Luminaire("t", pose, EmitterModel(power_w=power, semi_angle_deg=semi)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=tuple(lamps), detector=DET,
                            noise=NoiseParams(thermal_a2=10.0 ** log_thermal))
        assert_agrees_with_the_ladder(scenario, "t")


def full_ladder(scenario, tag_id, probes, threshold):
    """Stand-in for the ladder search that keeps every step."""
    return np.arange(1, analysis._SCAN_STEPS + 1)


def coverage_hex(scenario, tag, threshold=1e-2):
    report = coverage(scenario, tag, threshold)
    return report.max_reliable_distance_m.hex(), report.max_reliable_angle_deg.hex()


floor_aims = st.one_of(st.none(), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
emitters = st.builds(EmitterModel, power_w=st.floats(0.2, 3.0), semi_angle_deg=st.floats(10.0, 60.0))
# The data lamp on the ceiling, then 0-5 more: each at a point of the data
# lamp's ray (0 m down is the ceiling) moved sideways, so that some sit
# beside the ray or across it, with tags shared or not.
mixed_layouts = st.tuples(
    st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), floor_aims, emitters,
    st.lists(st.tuples(st.sampled_from(("t", "u", "v")), st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
                       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), floor_aims, emitters),
             min_size=0, max_size=5),
)


def lamp_pose(position, aim):
    return Pose(position, DOWN) if aim is None else Pose.aimed(position, Vec3(*aim, 0.0))


class TestLadderSearch:
    """The coverage ladder skips only runs of steps that provably fail."""

    @settings(max_examples=35, deadline=None)
    @given(mixed_layouts, st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
           st.sampled_from((30.0, 60.0, 90.0)), st.floats(-10.0, -4.0), st.floats(-14.0, -8.0),
           st.floats(-3.0, math.log10(5e-2)))
    # A narrow lamp 0.5 m beside the ray, aimed 45 degrees down across it,
    # lights the ray 2.8 m down, just above the threshold, inside a run
    # whose ends are both farther from the lamp than that crossing: only
    # the run's closest approach bounds the distance there.
    @example(layout=(0.0, 0.0, None, EmitterModel(power_w=1.0, semi_angle_deg=20.0),
                     [("t", 2.3, 0.5, 0.0, (-0.2, 0.0), EmitterModel(power_w=0.6, semi_angle_deg=10.0))]),
             tilt=(0.0, 0.0), fov=60.0, log_background=-10.0, log_thermal=-8.0, log_threshold=-2.0)
    # A strong interferer 0.3 m away on the ceiling stays outside the 30
    # degree field of view over the ray's first half meter, where the data
    # lamp passes: a lamp counts toward a run's interference bound only
    # when it is inside the field of view at every step.
    @example(layout=(0.0, 0.0, None, EmitterModel(power_w=0.2, semi_angle_deg=60.0),
                     [("u", 0.0, 0.3, 0.0, None, EmitterModel(power_w=3.0, semi_angle_deg=60.0))]),
             tilt=(0.0, 0.0), fov=30.0, log_background=-10.0, log_thermal=-12.0, log_threshold=-2.0)
    # A lone lamp, aimed off the vertical and read by a tilted receiver:
    # every step passes out to about 1.85 m and none after.
    @example(layout=(0.3, 0.2, (-0.5, 0.4), EmitterModel(power_w=1.0, semi_angle_deg=20.0), []),
             tilt=(0.2, -0.1), fov=60.0, log_background=-4.0, log_thermal=-10.0, log_threshold=-2.0)
    def test_kept_steps_hold_every_passing_step(self, layout, tilt, fov, log_background, log_thermal,
                                                log_threshold):
        x, y, aim, emitter, others = layout
        data = Luminaire("t", lamp_pose(Vec3(x, y, 3.0), aim), emitter)
        lamps = [data]
        for tag, down, dx, dy, aim, emitter in others:
            p = data.pose.position + data.pose.axis.scaled(down)
            position = Vec3(min(max(p.x + dx, -2.0), 2.0), min(max(p.y + dy, -2.0), 2.0), p.z)
            lamps.append(Luminaire(tag, lamp_pose(position, aim), emitter))
        scenario = Scenario(
            room=Room(4.0, 4.0, 3.0), luminaires=tuple(lamps),
            detector=DetectorModel(area_m2=1e-4, fov_deg=fov, gain=1.3),
            receiver_axis=Vec3(tilt[0], tilt[1], 1.0).normalized(),
            noise=NoiseParams(background_current_a=10.0 ** log_background, thermal_a2=10.0 ** log_thermal))
        threshold = 10.0 ** log_threshold
        try:
            _, passing = ladder_passing(scenario, "t", threshold)
        except GeometryError:
            assume(False)  # a step on a lamp; TestProbeOnALamp covers those

        kept = analysis._ladder_candidates(scenario, "t", ladder_probes(scenario, "t"), threshold)
        assert kept[0] == 1
        assert set((np.flatnonzero(passing) + 1).tolist()) <= set(kept.tolist())

        pruned = coverage_hex(scenario, "t", threshold)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_ladder_candidates", full_ladder)
            assert coverage_hex(scenario, "t", threshold) == pruned

    def test_l1_and_g1_keep_a_few_hundred_steps(self):
        # A noisy lone lamp passes out to about 3.3 m, so all of its first
        # 329 steps must be kept.
        lone = single_lamp_scenario(NoiseParams(background_current_a=1e-3, thermal_a2=1e-11))
        for scenario in (builtin_l1(), builtin_g1(), lone):
            for tag in scenario.tags():
                kept = analysis._ladder_candidates(scenario, tag, ladder_probes(scenario, tag), 1e-2)
                assert len(kept) < 500

    def test_dense_ceiling(self):
        # 64 lamps at a 0.4 m pitch share 16 tags, four lamps each, as on
        # the benchmark's generated 8 x 8 ceiling.
        rng = random.Random(8)
        labels = [f"t{i:02d}" for i in range(16) for _ in range(4)]
        rng.shuffle(labels)
        lamps = tuple(Luminaire(labels[8 * iy + ix], Pose(Vec3(0.4 * ix - 1.4, 0.4 * iy - 1.4, 3.0), DOWN),
                                EmitterModel(power_w=rng.uniform(0.8, 1.2), semi_angle_deg=rng.uniform(15.0, 35.0)))
                      for iy in range(8) for ix in range(8))
        scenario = Scenario(room=Room(3.2, 3.2, 3.0), luminaires=lamps, detector=DET)
        for tag in ("t00", "t07", "t13"):
            kept = analysis._ladder_candidates(scenario, tag, ladder_probes(scenario, tag), 1e-2)
            assert len(kept) < 500
            _, passing = ladder_passing(scenario, tag)
            assert set((np.flatnonzero(passing) + 1).tolist()) <= set(kept.tolist())
            pruned = coverage_hex(scenario, tag)
            assert 0.0 < float.fromhex(pruned[0]) < 100.0
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(analysis, "_ladder_candidates", full_ladder)
                assert coverage_hex(scenario, tag) == pruned

    def test_overflow_far_down_the_ray_raises_as_the_full_ladder(self, monkeypatch):
        # A 1e160 W interferer aimed across the ray is outside the field of
        # view at step 1, so that step passes; its light overflows the
        # budget about 0.9 m further down. The noise alone fails every step
        # from about 0.33 m on, so only the finite-bound rule keeps the
        # overflowing steps in the search.
        lamps = (Luminaire("t", Pose(Vec3(0.0, 0.0, 3.0), DOWN), EmitterModel(power_w=1.0, semi_angle_deg=20.0)),
                 Luminaire("x", Pose.aimed(Vec3(1.5, 0.0, 3.0), Vec3(-1.5, 0.0, 1.0)),
                           EmitterModel(power_w=1e160, semi_angle_deg=20.0)))
        scenario = Scenario(room=Room(4.0, 4.0, 3.0), luminaires=lamps, detector=DET,
                            noise=NoiseParams(thermal_a2=1e-7))
        step_1 = evaluate_points(scenario, [(0.0, 0.0, 2.99)], "t")
        assert step_1.interference_ms_a2[0] == 0.0 and step_1.ber[0] <= 1e-2
        assert evaluate_points(scenario, [(0.0, 0.0, 2.6)], "t").ber[0] > 1e-2
        with pytest.raises(ParameterError, match="overflows") as pruned:
            coverage(scenario, "t")
        monkeypatch.setattr(analysis, "_ladder_candidates", full_ladder)
        with pytest.raises(ParameterError) as full:
            coverage(scenario, "t")
        assert str(pruned.value) == str(full.value)


def mixed_scenario(layout, tilt, fov, log_background, log_thermal, extra=()):
    """A drawn ``mixed_layouts`` layout as a scenario, data tag "t", with ``extra`` lamps."""
    x, y, aim, emitter, others = layout
    data = Luminaire("t", lamp_pose(Vec3(x, y, 3.0), aim), emitter)
    lamps = [data]
    for tag, down, dx, dy, aim, emitter in others:
        p = data.pose.position + data.pose.axis.scaled(down)
        position = Vec3(min(max(p.x + dx, -2.0), 2.0), min(max(p.y + dy, -2.0), 2.0), p.z)
        lamps.append(Luminaire(tag, lamp_pose(position, aim), emitter))
    return Scenario(
        room=Room(4.0, 4.0, 3.0), luminaires=(*lamps, *extra),
        detector=DetectorModel(area_m2=1e-4, fov_deg=fov, gain=1.3),
        receiver_axis=Vec3(tilt[0], tilt[1], 1.0).normalized(),
        noise=NoiseParams(background_current_a=10.0 ** log_background, thermal_a2=10.0 ** log_thermal))


def on_the_fov_edge(position, receiver_axis, fov_deg, reach, phi):
    """A point that a receiver at ``position`` sees exactly at its field-of-view edge.

    The point lies in the direction at ``fov_deg`` from the receiver axis
    and azimuth ``phi`` around it, ``reach`` (0 to 1) of the way to the
    walls of the 4 x 4 x 3 m room.
    """
    a = np.array([receiver_axis.x, receiver_axis.y, receiver_axis.z])
    e1 = np.cross(a, (1.0, 0.0, 0.0))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    fov = math.radians(fov_deg)
    direction = math.cos(fov) * a + math.sin(fov) * (math.cos(phi) * e1 + math.sin(phi) * e2)
    p = np.array([position.x, position.y, position.z])
    with np.errstate(divide="ignore", over="ignore"):  # a direction component near or at 0
        to_walls = np.where(direction > 0.0, ((2.0, 2.0, 3.0) - p) / direction,
                            ((-2.0, -2.0, 0.0) - p) / direction)
    return Vec3(*(p + reach * np.nanmin(np.abs(to_walls)) * direction))


class TestSegmentBound:
    """``segments_may_pass`` on zero-length segments: the bound at single positions."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_layouts, st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
           st.sampled_from((30.0, 60.0, 90.0)), st.floats(-10.0, -4.0), st.floats(-14.0, -8.0),
           st.floats(-3.0, math.log10(5e-2)),
           st.lists(st.floats(0.01, 3.0), max_size=20),
           st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.95)), max_size=20),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 0.95), st.floats(0.0, 2.0 * math.pi),
                              st.sampled_from(("t", "u", "v")), emitters), max_size=6))
    def test_every_position_that_reads_is_kept(self, layout, tilt, fov, log_background, log_thermal,
                                               log_threshold, down_the_ray, in_the_room, edge_lamps):
        # Each edge lamp sits at the field-of-view edge of a point on the
        # data lamp's ray, aimed at it; the point is checked with the rest.
        # A position reads by the kernel or by the scalar reference, which
        # shares none of the kernel's code with the bound.
        scenario = mixed_scenario(layout, tilt, fov, log_background, log_thermal)
        origin, axis = scenario.luminaires[0].pose.position, scenario.luminaires[0].pose.axis
        seen_at_the_edge, extra = [], []
        for depth, reach, phi, tag, emitter in edge_lamps:
            p = origin + axis.scaled(0.01 + 0.98 * depth * 3.0 / -axis.z)
            lamp = on_the_fov_edge(p, scenario.receiver_axis, fov, reach, phi)
            seen_at_the_edge.append((p.x, p.y, p.z))
            extra.append(Luminaire(tag, Pose.aimed(lamp, p), emitter))
        scenario = mixed_scenario(layout, tilt, fov, log_background, log_thermal, extra)
        threshold = 10.0 ** log_threshold
        points = [*ladder_probes(scenario, "t")(np.array(down_the_ray)), *in_the_room, *seen_at_the_edge]
        assume(points)
        points = np.array(points)
        try:
            passing = np.array(evaluate_points(scenario, points, "t").ber) <= threshold
        except GeometryError:
            assume(False)  # a position on a lamp
        reference = np.array([evaluate_link(scenario, Vec3(*p), "t").ber for p in points.tolist()]) <= threshold
        kept = segments_may_pass(scenario, "t", points, points, threshold)
        assert kept[passing | reference].all()

    @pytest.mark.parametrize("make", [builtin_l1, builtin_g1], ids=["l1", "g1"])
    @pytest.mark.parametrize("threshold", [1e-2, 1e-3])
    def test_a_lit_position_is_ruled_out_just_below_the_target(self, make, threshold):
        # At a single position the bound is tight: where the data tag is lit,
        # only an SNR within 0.1% of the threshold's can be kept yet fail.
        scenario = make()
        rng = np.random.default_rng(11)
        points = np.column_stack((rng.uniform(-1.0, 1.0, 2000), rng.uniform(-1.0, 1.0, 2000),
                                  rng.uniform(1.0, 1.95, 2000)))
        target = -2.0 * math.log(2.0 * threshold)
        for tag in scenario.tags():
            columns = evaluate_points(scenario, points, tag)
            snr = np.array(columns.snr)
            lit = np.array(columns.signal_ms_a2) > 0.0
            kept = segments_may_pass(scenario, tag, points, points, threshold)
            assert kept[np.array(columns.ber) <= threshold].all()
            assert not kept[lit & (snr < 0.999 * target)].any()
            assert (lit & (snr < 0.999 * target)).sum() > 500


class TestNoiselessBound:
    """``segments_may_pass`` where no noise and no interference reach a position."""

    @pytest.mark.parametrize("threshold", [1e-6, 1e-3, 1e-2, 0.1, 0.49])
    def test_no_dark_position_is_kept_below_one_half(self, threshold):
        # L1 has no noise but the signal's own shot noise: a position that
        # sees no lamp has no noise either, so its SNR bound used to be
        # 0 / 0 and kept the position.
        scenario = builtin_l1()
        rng = np.random.default_rng(27)
        points = np.column_stack((rng.uniform(-1.0, 1.0, 4000), rng.uniform(-1.0, 1.0, 4000),
                                  rng.uniform(0.5, 1.95, 4000)))
        for tag in scenario.tags():
            columns = evaluate_points(scenario, points, tag)
            dark = np.array(columns.signal_ms_a2) == 0.0
            unlit = np.array(columns.received_power_w) == 0.0
            kept = segments_may_pass(scenario, tag, points, points, threshold)
            assert unlit.sum() > 500
            assert not kept[dark].any()
            assert kept[np.array(columns.ber) <= threshold].all()

    def test_dark_positions_are_kept_from_one_half_up(self):
        # An error rate of 1/2 passes a threshold of 1/2.
        scenario = builtin_l1()
        points = np.array([(0.9, 0.9, 1.9), (-0.9, 0.5, 1.5)])
        assert (np.array(evaluate_points(scenario, points, "inner").received_power_w) == 0.0).all()
        for threshold in (0.5, 0.7):
            assert segments_may_pass(scenario, "inner", points, points, threshold).all()


def sequential_bisect(ok, lo, hi, tol):
    """The one-point-at-a-time bisection: the answer and its number of halvings."""
    halvings = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        halvings += 1
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, halvings


class TestBatchedBisection:
    """``_bisect`` evaluates several halvings per call and keeps the sequential answer."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 200.0), st.floats(1e-6, 10.0),
           st.one_of(st.floats(0.0, 1.0).map(lambda f: ("monotone", f)),
                     st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(lambda cuts: ("bands", cuts)),
                     st.integers(1, 10 ** 6).map(lambda k: ("comb", k))))
    @example(0.0, 1.0, 1.0, ("monotone", 0.5))       # already within tol: no call
    @example(0.0, 90.0, 0.1, ("monotone", 0.3))      # the angle search
    @example(0.37, 0.01, 1e-3, ("comb", 7))          # one ladder step
    def test_batched_answer_is_the_sequential_answer(self, lo, width, tol, predicate):
        hi = lo + width
        kind, shape = predicate
        if kind == "monotone":
            def ok(x):
                return x <= lo + shape * width
        elif kind == "bands":
            # Passing and failing bands alternate between the sorted cuts.
            def ok(x):
                return sum(x > lo + c * width for c in shape) % 2 == 0
        else:
            def ok(x):
                return hash(x) % shape % 2 == 0
        calls = []

        def passes(points):
            calls.append(list(points))
            return np.array([ok(x) for x in points])

        expected, halvings = sequential_bisect(ok, lo, hi, tol)
        assert analysis._bisect(passes, lo, hi, tol).hex() == expected.hex()
        assert len(calls) == -(-halvings // analysis._BISECT_LEVELS)
        assert all(0 < len(batch) <= 2 ** analysis._BISECT_LEVELS - 1 for batch in calls)
