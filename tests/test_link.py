import math

import pytest
from hypothesis import given, strategies as st

from ledid import (
    DetectorModel,
    ELECTRON_CHARGE_C,
    EmitterModel,
    Luminaire,
    ModulationParams,
    NoiseParams,
    ParameterError,
    Pose,
    Room,
    Scenario,
    TagNotFoundError,
    Vec3,
    ber_bfsk,
    builtin_l1,
    evaluate_link,
    snr,
)

DOWN = Vec3(0.0, 0.0, -1.0)

DET = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3)


def chain_ber(plane_m, data_lateral, interferer_laterals, m, include_signal_shot=True):
    """Independent end-to-end oracle for the parallel-plane layout.

    Plugs the Lambertian gain of every lamp into the power-sum link budget
    with the default detector and modulation parameters and returns the
    BFSK error rate. Written from scratch so it can cross-check the
    package's evaluate_link.
    """
    def gain(lateral):
        d_sq = lateral ** 2 + plane_m ** 2
        c = plane_m / math.sqrt(d_sq)
        if math.degrees(math.acos(c)) > 60.0:
            return 0.0
        return (m + 1.0) * 1e-4 * c ** m * c * 1.3 / (2.0 * math.pi * d_sq)

    h_data = gain(data_lateral)
    h_int = [gain(v) for v in interferer_laterals]
    signal = (0.54 * h_data) ** 2 * 0.5
    interference = sum((0.54 * h) ** 2 * 0.5 for h in h_int)
    noise = 0.0
    if include_signal_shot:
        total_power = h_data + sum(h_int)
        noise = 2.0 * ELECTRON_CHARGE_C * 0.54 * total_power * 1e4
    ratio = signal / (noise + interference)
    return 0.5 * math.exp(-0.5 * ratio)


def lamps_scenario(*lamps):
    """Down-facing lamps ``(tag, x_m, modulation)`` 1 m above the receiver plane at z = 1 m."""
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
    return Scenario(room=Room(2.0, 2.0, 2.0), detector=DET, luminaires=tuple(
        Luminaire(tag, Pose(Vec3(x, 0.0, 2.0), DOWN), emitter, mod) for tag, x, mod in lamps))


class TestElectricalSignal:
    def test_single_luminaire_plug_in(self):
        h = 2.0 * 1e-4 * 1.3 / (2.0 * math.pi)  # boresight gain at 1 m, m = 1
        scenario = lamps_scenario(("a", 0.0, ModulationParams()))
        value = evaluate_link(scenario, Vec3(0.0, 0.0, 1.0), "a").signal_ms_a2
        assert value == pytest.approx((0.54 * h * 1.0 * 1.0) ** 2 * 0.5, rel=1e-15)  # (R h P mu)^2 E
        assert value == pytest.approx(2.497e-10, rel=1e-3)

    def test_two_identical_luminaires_double_the_power(self):
        # Mirror-image lamps give the receiver between them equal gains.
        rx = Vec3(0.0, 0.0, 1.0)
        one = evaluate_link(lamps_scenario(("a", 0.3, ModulationParams())), rx, "a").signal_ms_a2
        two = evaluate_link(lamps_scenario(("a", -0.3, ModulationParams()), ("a", 0.3, ModulationParams())),
                            rx, "a").signal_ms_a2
        assert one > 0.0
        assert two == 2.0 * one

    def test_per_luminaire_modulation(self):
        rx = Vec3(0.0, 0.0, 1.0)
        one = evaluate_link(lamps_scenario(("a", 0.3, ModulationParams())), rx, "a").signal_ms_a2
        value = evaluate_link(lamps_scenario(("a", -0.3, ModulationParams(mod_index=1.0)),
                                             ("a", 0.3, ModulationParams(mod_index=0.5))), rx, "a").signal_ms_a2
        assert value == pytest.approx(one * (1.0 + 0.25), rel=1e-15)


class TestSnr:
    def test_plain_ratio(self):
        assert snr(2.0, 1.0, 1.0) == 1.0

    def test_zero_signal_is_zero_snr(self):
        assert snr(0.0, 0.0, 0.0) == 0.0
        assert snr(0.0, 1.0, 1.0) == 0.0

    def test_zero_denominator_is_infinite_sentinel(self):
        assert math.isinf(snr(1.0, 0.0, 0.0))

    def test_negative_inputs_raise(self):
        with pytest.raises(ParameterError):
            snr(-1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            snr(1.0, -1.0, 0.0)
        with pytest.raises(ParameterError):
            snr(1.0, 0.0, -1.0)

    def test_interference_limited_two_lamp_ratio(self):
        # Gain ratio of the 16 cm neighbour at the 40 cm plane, by hand.
        m = -math.log(2.0) / math.log(math.cos(math.radians(20.0)))

        def relative_gain(lateral, vertical):
            d_sq = lateral ** 2 + vertical ** 2
            c = vertical / math.sqrt(d_sq)
            return c ** (m + 1.0) / d_sq

        ratio = relative_gain(0.16, 0.40) / relative_gain(0.0, 0.40)
        assert ratio == pytest.approx(0.35008400396547074, rel=1e-12)
        value = snr((1.0) ** 2, ratio ** 2, 0.0)
        assert value == pytest.approx(1.0 / ratio ** 2, rel=1e-12)
        assert value == pytest.approx(8.159, abs=2e-2)


class TestBerBfsk:
    def test_zero_snr_is_half(self):
        assert ber_bfsk(0.0) == 0.5

    def test_inversion_point(self):
        # 2 ln 50 is the algebraic inverse of ber = 1e-2.
        assert ber_bfsk(2.0 * math.log(50.0)) == pytest.approx(1e-2, rel=1e-14)

    def test_interference_limited_forty_cm_order(self):
        assert ber_bfsk(8.159348) == pytest.approx(8.6e-3, rel=3e-2)

    def test_infinite_snr_sentinel_maps_to_zero(self):
        assert ber_bfsk(math.inf) == 0.0

    def test_negative_snr_raises(self):
        with pytest.raises(ParameterError):
            ber_bfsk(-0.1)

    @given(a=st.floats(min_value=0.0, max_value=60.0), b=st.floats(min_value=0.0, max_value=60.0))
    def test_strictly_decreasing_and_in_range(self, a, b):
        pa, pb = ber_bfsk(a), ber_bfsk(b)
        assert 0.0 < pa <= 0.5
        if a < b:
            assert pa >= pb
        # Strictness needs an SNR gap wide enough to move the significand.
        if a + 1e-9 < b:
            assert pa > pb


class TestEvaluateLink:
    def test_unknown_tag_raises(self):
        with pytest.raises(TagNotFoundError):
            evaluate_link(builtin_l1(), Vec3(0, 0, 1.7), "nope")

    def test_single_luminaire_boresight_shot_limited(self):
        # Independent single-source expression: SNR = R h P mu^2 E / (2 q B).
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        scenario = Scenario(
            room=Room(2.0, 2.0, 3.0),
            luminaires=(Luminaire("only", Pose(Vec3(0, 0, 3.0), DOWN), emitter),),
            detector=DET,
        )
        budget = evaluate_link(scenario, Vec3(0.0, 0.0, 2.0), "only")
        assert budget.interference_ms_a2 == 0.0
        h = budget.data_gain("only")
        expected_snr = 0.54 * h * 1.0 * 0.5 / (2.0 * ELECTRON_CHARGE_C * 1e4)
        assert budget.snr == pytest.approx(expected_snr, rel=1e-12)
        assert budget.noise_variance_a2 > 0.0

    def test_l1_outer_left_foot_chain(self):
        scenario = builtin_l1()
        m = scenario.luminaires[0].emitter.lambertian_order
        for plane, band_lo, band_hi in ((0.30, 0.0, 1e-5), (0.40, 3e-3, 3e-2), (0.50, 0.03, 0.3)):
            budget = evaluate_link(scenario, Vec3(-0.16, 0.0, 2.0 - plane), "outer-left")
            expected = chain_ber(plane, 0.0, (0.16, 0.32), m)
            assert budget.ber == pytest.approx(expected, rel=1e-9)
            assert band_lo <= budget.ber <= band_hi

    def test_l1_foot_ber_increases_with_plane_distance(self):
        scenario = builtin_l1()
        bers = [
            evaluate_link(scenario, Vec3(-0.16, 0.0, 2.0 - plane), "outer-left").ber
            for plane in (0.30, 0.40, 0.50)
        ]
        assert bers[0] < bers[1] < bers[2]

    def test_budget_internal_invariants(self):
        budget = evaluate_link(builtin_l1(), Vec3(-0.16, 0.0, 1.6), "outer-left")
        assert budget.snr == pytest.approx(
            budget.signal_ms_a2 / (budget.noise_variance_a2 + budget.interference_ms_a2), rel=1e-15)
        assert budget.ber == pytest.approx(0.5 * math.exp(-0.5 * budget.snr), rel=1e-15)
        assert len(budget.per_luminaire_gain) == 3
        assert budget.received_power_w == pytest.approx(
            math.fsum(h for _, h in budget.per_luminaire_gain), rel=1e-15)

    def test_dark_cell_has_half_ber(self):
        # Far corner: every lamp is outside the field of view.
        budget = evaluate_link(builtin_l1(), Vec3(0.99, 0.99, 1.7), "outer-left")
        assert budget.signal_ms_a2 == 0.0
        assert budget.snr == 0.0
        assert budget.ber == 0.5

    def test_power_scaling_invariance_when_interference_limited(self):
        def scenario_with_power(power):
            emitter = EmitterModel(power_w=power, semi_angle_deg=20.0)
            lums = tuple(
                Luminaire(tag, Pose(Vec3(x, 0.0, 2.0), DOWN), emitter)
                for tag, x in (("a", -0.16), ("b", 0.0)))
            return Scenario(room=Room(2.0, 2.0, 2.0), luminaires=lums, detector=DET)

        point = Vec3(-0.16, 0.0, 1.6)
        snr_1 = evaluate_link(scenario_with_power(1.0), point, "a").snr
        snr_4 = evaluate_link(scenario_with_power(4.0), point, "a").snr
        # Interference dominates the tiny signal shot noise, so the ratio is
        # preserved to many digits but not exactly.
        assert snr_4 == pytest.approx(snr_1, rel=1e-8)

    def test_power_scaling_increases_snr_with_fixed_ambient_noise(self):
        def scenario_with_power(power):
            emitter = EmitterModel(power_w=power, semi_angle_deg=20.0)
            lums = tuple(
                Luminaire(tag, Pose(Vec3(x, 0.0, 2.0), DOWN), emitter)
                for tag, x in (("a", -0.16), ("b", 0.0)))
            return Scenario(room=Room(2.0, 2.0, 2.0), luminaires=lums, detector=DET,
                            noise=NoiseParams(background_current_a=1e-3))

        point = Vec3(-0.16, 0.0, 1.6)
        snr_1 = evaluate_link(scenario_with_power(1.0), point, "a").snr
        snr_4 = evaluate_link(scenario_with_power(4.0), point, "a").snr
        assert snr_4 > snr_1

    def test_swapping_data_and_interferer_mirrors_the_field(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        lums = (
            Luminaire("a", Pose(Vec3(-0.08, 0.0, 2.0), DOWN), emitter),
            Luminaire("b", Pose(Vec3(0.08, 0.0, 2.0), DOWN), emitter),
        )
        scenario = Scenario(room=Room(2.0, 2.0, 2.0), luminaires=lums, detector=DET)
        for x, y in ((0.0, 0.0), (0.05, 0.02), (-0.3, 0.1), (0.2, -0.4)):
            ber_a = evaluate_link(scenario, Vec3(x, y, 1.65), "a").ber
            ber_b = evaluate_link(scenario, Vec3(-x, y, 1.65), "b").ber
            assert ber_a == ber_b

    def test_shared_tag_luminaires_join_the_data_set(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        lums = (
            Luminaire("pair", Pose(Vec3(-0.08, 0.0, 2.0), DOWN), emitter),
            Luminaire("pair", Pose(Vec3(0.08, 0.0, 2.0), DOWN), emitter),
        )
        scenario = Scenario(room=Room(2.0, 2.0, 2.0), luminaires=lums, detector=DET)
        budget = evaluate_link(scenario, Vec3(0.0, 0.0, 1.6), "pair")
        assert budget.interference_ms_a2 == 0.0
        assert budget.signal_ms_a2 > 0.0


class TestModulationParams:
    def test_defaults(self):
        mod = ModulationParams()
        assert mod.mod_index == 1.0
        assert mod.baseband_power == 0.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            ModulationParams(mod_index=0.0)
        with pytest.raises(ParameterError):
            ModulationParams(mod_index=1.5)
        with pytest.raises(ParameterError):
            ModulationParams(baseband_power=0.0)
