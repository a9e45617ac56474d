import numpy as np
import pytest
from hypothesis import given, strategies as st

from ledid import (
    DetectorModel,
    ELECTRON_CHARGE_C,
    NoiseParams,
    ParameterError,
    shot_noise_variance,
    total_noise_variance,
)

DET = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3)  # R = 0.54, B = 1e4 defaults

nonneg = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_all_zero_inputs_give_zero():
    assert shot_noise_variance(0.0, DET, NoiseParams()) == 0.0
    assert total_noise_variance(0.0, DET, NoiseParams()) == 0.0


def test_ambient_term_plug_in():
    # 2 q I_bg I2 B evaluated independently.
    params = NoiseParams(background_current_a=200e-6)
    expected = 2.0 * ELECTRON_CHARGE_C * 200e-6 * 0.56 * 1e4
    assert shot_noise_variance(0.0, DET, params) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(3.589e-19, rel=1e-3)


def test_signal_term_plug_in():
    expected = 2.0 * ELECTRON_CHARGE_C * 0.54 * 1e-6 * 1e4
    assert shot_noise_variance(1e-6, DET, NoiseParams()) == pytest.approx(expected, rel=1e-15)


def test_doubling_bandwidth_doubles_shot_noise():
    params = NoiseParams(background_current_a=50e-6)
    det2 = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3, bandwidth_hz=2e4)
    assert shot_noise_variance(1e-6, det2, params) == 2.0 * shot_noise_variance(1e-6, DET, params)


def test_total_adds_thermal_and_isi_constants():
    params = NoiseParams(thermal_a2=1e-20)
    assert total_noise_variance(0.0, DET, params) == 1e-20

    params = NoiseParams(background_current_a=200e-6, thermal_a2=1e-19)
    shot = shot_noise_variance(0.0, DET, params)
    assert total_noise_variance(0.0, DET, params) == pytest.approx(shot + 1e-19, rel=1e-15)
    assert total_noise_variance(0.0, DET, params) == pytest.approx(4.589e-19, rel=1e-3)


def test_defaults_make_total_equal_shot():
    # With the constant terms at their zero defaults the total is pure shot.
    params = NoiseParams(background_current_a=10e-6)
    assert total_noise_variance(2e-6, DET, params) == shot_noise_variance(2e-6, DET, params)


def test_negative_power_raises():
    with pytest.raises(ParameterError):
        shot_noise_variance(-1e-9, DET, NoiseParams())


def test_negative_params_raise():
    with pytest.raises(ParameterError):
        NoiseParams(background_current_a=-1e-6)
    with pytest.raises(ParameterError):
        NoiseParams(thermal_a2=-1.0)
    with pytest.raises(ParameterError):
        NoiseParams(isi_a2=-1.0)
    with pytest.raises(ParameterError):
        NoiseParams(i2=-0.1)


def test_i2_default():
    assert NoiseParams().i2 == 0.56


@given(p=nonneg, ibg=nonneg, thermal=nonneg, isi=nonneg, scale=st.floats(min_value=1.0, max_value=10.0))
def test_total_noise_monotone_in_every_input(p, ibg, thermal, isi, scale):
    base = total_noise_variance(p, DET, NoiseParams(background_current_a=ibg,
                                                    thermal_a2=thermal, isi_a2=isi))
    assert total_noise_variance(p * scale, DET, NoiseParams(
        background_current_a=ibg, thermal_a2=thermal, isi_a2=isi)) >= base
    assert total_noise_variance(p, DET, NoiseParams(
        background_current_a=ibg * scale, thermal_a2=thermal, isi_a2=isi)) >= base
    assert total_noise_variance(p, DET, NoiseParams(
        background_current_a=ibg, thermal_a2=thermal * scale, isi_a2=isi)) >= base
    assert total_noise_variance(p, DET, NoiseParams(
        background_current_a=ibg, thermal_a2=thermal, isi_a2=isi * scale)) >= base
    assert base >= shot_noise_variance(p, DET, NoiseParams(background_current_a=ibg))


NOISY = NoiseParams(background_current_a=3e-5, i2=0.56, thermal_a2=2e-20, isi_a2=7e-21)


@given(st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=30))
def test_a_column_gets_the_bits_of_each_float(drawn):
    powers = [0.0, 5e-324, 1e-310, 1e300, *drawn]
    for params in (NoiseParams(), NOISY):
        with np.errstate(over="ignore"):  # 1e300 W overflows the shot noise to inf
            column = total_noise_variance(np.array(powers), DET, params)
        assert [v.hex() for v in column.tolist()] == [total_noise_variance(p, DET, params).hex() for p in powers]


def test_a_negative_element_raises():
    with pytest.raises(ParameterError, match="received power must be >= 0"):
        total_noise_variance(np.array([1e-6, 0.0, -1e-9]), DET, NOISY)
