import math

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from ledid import (
    DetectorModel,
    EmitterModel,
    ParameterError,
    Pose,
    Vec3,
    channel_gain,
    lambertian_order,
    radiant_intensity,
)

DOWN = Vec3(0.0, 0.0, -1.0)
UP = Vec3(0.0, 0.0, 1.0)

TABLE_DETECTOR = DetectorModel(area_m2=1.0e-4, fov_deg=60.0, gain=1.3)


def expected_gain(lateral_m, vertical_m, m, area=1.0e-4, gain=1.3, fov_deg=60.0):
    """Independent plug-in of the parallel-plane gain formula."""
    d_sq = lateral_m ** 2 + vertical_m ** 2
    cos_angle = vertical_m / math.sqrt(d_sq)
    if math.degrees(math.acos(cos_angle)) > fov_deg or cos_angle <= 0.0:
        return 0.0
    return (m + 1.0) * area * cos_angle ** m * cos_angle * gain / (2.0 * math.pi * d_sq)


class TestLambertianOrder:
    def test_sixty_degrees_is_first_order(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, rel=1e-14)

    def test_twenty_degrees(self):
        # Frozen from an independent evaluation of -ln 2 / ln(cos 20 deg).
        assert lambertian_order(20.0) == pytest.approx(11.143405279234123, rel=1e-12)

    # Below about 6.04e-7 degrees the cosine rounds to 1 and its logarithm is 0.
    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0, 1.0e-7, 6.0e-7, 5e-324])
    def test_out_of_domain_raises(self, bad):
        with pytest.raises(ParameterError):
            lambertian_order(bad)

    def test_from_order_needs_a_positive_order(self):
        with pytest.raises(ParameterError, match="^Lambertian order must be positive, got 0.0$"):
            EmitterModel.from_order(1.0, 0.0)

    def test_from_order_round_trips(self):
        emitter = EmitterModel.from_order(2.0, 11.14)
        assert emitter.lambertian_order == pytest.approx(11.14, rel=1e-12)
        assert emitter.power_w == 2.0


class TestRadiantIntensity:
    def test_boresight_first_order(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
        assert radiant_intensity(0.0, emitter) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_half_power_at_semi_angle(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
        boresight = radiant_intensity(0.0, emitter)
        at_semi = radiant_intensity(math.radians(60.0), emitter)
        assert at_semi == pytest.approx(0.5 * boresight, rel=1e-12)

    def test_half_power_definition_holds_for_any_order(self):
        for semi in (10.0, 20.0, 45.0, 75.0):
            emitter = EmitterModel(power_w=3.0, semi_angle_deg=semi)
            ratio = radiant_intensity(math.radians(semi), emitter) / radiant_intensity(0.0, emitter)
            assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_zero_at_and_beyond_ninety(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        assert radiant_intensity(math.pi / 2, emitter) == pytest.approx(0.0, abs=1e-16)
        assert radiant_intensity(math.pi / 2 + 0.2, emitter) == 0.0

    @pytest.mark.parametrize("order", [1.0, 11.14, 50.0])
    def test_hemispherical_integral_conserves_power(self, order):
        # Independent quadrature of I(theta) over the emitting hemisphere.
        emitter = EmitterModel.from_order(2.5, order)
        total, _ = quad(lambda t: radiant_intensity(t, emitter) * 2.0 * math.pi * math.sin(t),
                        0.0, math.pi / 2)
        assert total == pytest.approx(emitter.power_w, rel=1e-6)


class TestChannelGain:
    def test_boresight_plug_in(self):
        # h = 2 A g / (2 pi d^2) for m = 1 at d = 1 m, frozen by hand.
        tx = Pose(Vec3(0, 0, 1.0), DOWN)
        rx = Pose(Vec3(0, 0, 0.0), UP)
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
        h = channel_gain(tx, emitter, rx, TABLE_DETECTOR)
        assert h == pytest.approx(2.0 * 1e-4 * 1.3 / (2.0 * math.pi), rel=1e-12)
        assert h == pytest.approx(4.138e-5, rel=1e-3)

    def test_lateral_offset_plug_in(self):
        # 16 cm lateral at 30 cm drop with a 20 degree emitter.
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        tx = Pose(Vec3(0, 0, 2.0), DOWN)
        rx = Pose(Vec3(0.16, 0, 1.7), UP)
        h = channel_gain(tx, emitter, rx, TABLE_DETECTOR)
        assert h == pytest.approx(expected_gain(0.16, 0.3, emitter.lambertian_order), rel=1e-12)
        assert h == pytest.approx(4.753998231558908e-4, rel=1e-9)

    def test_outside_fov_is_zero(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        tx = Pose(Vec3(0, 0, 2.0), DOWN)
        # Incidence angle atan(1.0/0.3) = 73 deg > 60 deg field of view.
        rx = Pose(Vec3(1.0, 0, 1.7), UP)
        assert channel_gain(tx, emitter, rx, TABLE_DETECTOR) == 0.0

    def test_behind_emitter_is_zero_even_inside_fov(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        wide = DetectorModel(area_m2=1e-4, fov_deg=90.0, gain=1.0)
        tx = Pose(Vec3(0, 0, 1.0), DOWN)
        rx_above = Pose(Vec3(0.0, 0.0, 1.5), DOWN)  # above the lamp, looking down
        assert channel_gain(tx, emitter, rx_above, wide) == 0.0

    def test_behind_detector_is_zero(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
        wide = DetectorModel(area_m2=1e-4, fov_deg=90.0, gain=1.0)
        tx = Pose(Vec3(0, 0, 1.0), DOWN)
        rx_facing_away = Pose(Vec3(0, 0, 0.0), DOWN)
        assert channel_gain(tx, emitter, rx_facing_away, wide) == 0.0

    def test_first_order_reduces_to_classic_formula(self):
        # Hand-written first-order expression, independent of the module.
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=60.0)
        tx = Pose(Vec3(0.0, 0.0, 2.0), DOWN)
        for lateral in (0.0, 0.2, 0.5, 0.9):
            rx = Pose(Vec3(lateral, 0.0, 1.0), UP)
            d_sq = lateral ** 2 + 1.0
            cos_angle = 1.0 / math.sqrt(d_sq)
            classic = 2.0 * 1e-4 * cos_angle * cos_angle * 1.3 / (2.0 * math.pi * d_sq)
            assert channel_gain(tx, emitter, rx, TABLE_DETECTOR) == pytest.approx(classic, rel=1e-12)

    @given(
        lateral=st.floats(min_value=0.0, max_value=0.4),
        vertical=st.floats(min_value=0.1, max_value=4.0),
        semi=st.floats(min_value=5.0, max_value=80.0),
    )
    def test_doubling_distance_quarters_gain(self, lateral, vertical, semi):
        # The emitter sits at the origin so doubling the receiver position
        # doubles the displacement exactly, making 1/d^2 scaling bitwise.
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=semi)
        tx = Pose(Vec3(0.0, 0.0, 0.0), DOWN)
        near = Pose(Vec3(lateral, 0.0, -vertical), UP)
        far = Pose(Vec3(2.0 * lateral, 0.0, -2.0 * vertical), UP)
        h_near = channel_gain(tx, emitter, near, TABLE_DETECTOR)
        h_far = channel_gain(tx, emitter, far, TABLE_DETECTOR)
        if h_near == 0.0:
            assert h_far == 0.0
        else:
            assert h_far * 4.0 == h_near

    def test_gain_maximal_directly_beneath(self):
        emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
        tx = Pose(Vec3(0.0, 0.0, 2.0), DOWN)
        beneath = channel_gain(tx, emitter, Pose(Vec3(0.0, 0.0, 1.7), UP), TABLE_DETECTOR)
        for lateral in (0.01, 0.05, 0.1, 0.3, 0.6):
            off = channel_gain(tx, emitter, Pose(Vec3(lateral, 0.0, 1.7), UP), TABLE_DETECTOR)
            assert off < beneath


class TestModelValidation:
    def test_emitter_power_must_be_positive(self):
        with pytest.raises(ParameterError):
            EmitterModel(power_w=0.0, semi_angle_deg=20.0)

    def test_detector_field_ranges(self):
        with pytest.raises(ParameterError):
            DetectorModel(area_m2=0.0, fov_deg=60.0, gain=1.3)
        with pytest.raises(ParameterError):
            DetectorModel(area_m2=1e-4, fov_deg=120.0, gain=1.3)
        with pytest.raises(ParameterError):
            DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=-1.0)
        with pytest.raises(ParameterError):
            DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3, responsivity_a_per_w=0.0)
        with pytest.raises(ParameterError):
            DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3, bandwidth_hz=0.0)
        # 90 degrees of half field of view is a legal hemisphere detector.
        DetectorModel(area_m2=1e-4, fov_deg=90.0, gain=1.0)
