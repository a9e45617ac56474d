import math

import pytest
from hypothesis import given, strategies as st

from ledid import GeometryError, ParameterError, Pose, Vec3, link_geometry

DOWN = Vec3(0.0, 0.0, -1.0)
UP = Vec3(0.0, 0.0, 1.0)

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def test_collinear_facing_pair():
    d, theta, psi = link_geometry(Pose(Vec3(0, 0, 2.0), DOWN), Pose(Vec3(0, 0, 1.7), UP))
    assert d == pytest.approx(0.3, rel=1e-15)
    assert theta == 0.0
    assert psi == 0.0


def test_lateral_offset_pair():
    # Hand trigonometry: d = sqrt(0.16^2 + 0.3^2), theta = psi = atan(0.16/0.3).
    expected_d = math.sqrt(0.16 ** 2 + 0.3 ** 2)
    expected_angle = math.atan2(0.16, 0.3)
    d, theta, psi = link_geometry(Pose(Vec3(0, 0, 2.0), DOWN), Pose(Vec3(0.16, 0, 1.7), UP))
    assert d == pytest.approx(expected_d, rel=1e-15)
    assert d == pytest.approx(0.3400, abs=5e-5)
    assert theta == pytest.approx(expected_angle, abs=1e-12)
    assert psi == pytest.approx(expected_angle, abs=1e-12)
    assert math.degrees(theta) == pytest.approx(28.07, abs=0.01)


def test_coincident_positions_raise():
    tx = Pose(Vec3(0, 0, 2.0), DOWN)
    rx = Pose(Vec3(0, 0, 2.0), UP)
    with pytest.raises(GeometryError):
        link_geometry(tx, rx)


def test_axis_must_be_unit_length():
    with pytest.raises(ParameterError):
        Pose(Vec3(0, 0, 0), Vec3(0, 0, 2.0))
    with pytest.raises(ParameterError):
        Pose(Vec3(0, 0, 0), Vec3(0, 0, 1.0 + 1e-6))
    # 1e-9 of slack is allowed.
    Pose(Vec3(0, 0, 0), Vec3(0, 0, 1.0 + 1e-10))


def test_vector_components_must_be_finite():
    with pytest.raises(ParameterError):
        Vec3(math.nan, 0.0, 0.0)
    with pytest.raises(ParameterError):
        Vec3(0.0, math.inf, 0.0)


def test_normalize_zero_vector_raises():
    with pytest.raises(GeometryError):
        Vec3(0.0, 0.0, 0.0).normalized()


def test_aiming_at_the_own_position_raises():
    p = Vec3(1.0, -2.0, 3.0)
    with pytest.raises(GeometryError, match="^cannot aim a pose at its own position$"):
        Pose.aimed(p, p)


def test_aimed_points_at_target():
    pose = Pose.aimed(Vec3(1.0, -2.0, 3.0), Vec3(0.5, 0.5, 0.5))
    d, theta, _ = link_geometry(pose, Pose(Vec3(0.5, 0.5, 0.5), UP))
    assert theta <= 1e-9


@given(ax=coords, ay=coords, az=coords, bx=coords, by=coords, bz=coords)
def test_distance_is_symmetric(ax, ay, az, bx, by, bz):
    a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
    if (a - b).norm() == 0.0:
        return
    d_ab, _, _ = link_geometry(Pose(a, DOWN), Pose(b, UP))
    d_ba, _, _ = link_geometry(Pose(b, DOWN), Pose(a, UP))
    assert d_ab == d_ba


@given(x=coords, y=coords, z=coords, k=st.floats(min_value=0.01, max_value=100.0))
def test_angles_invariant_under_scaling_about_tx(x, y, z, k):
    tx = Pose(Vec3(1.0, 2.0, 3.0), DOWN)
    rx_pos = Vec3(x, y, z)
    offset = rx_pos - tx.position
    if offset.norm() < 1e-6:
        return
    scaled_pos = tx.position + offset.scaled(k)
    _, theta1, psi1 = link_geometry(tx, Pose(rx_pos, UP))
    _, theta2, psi2 = link_geometry(tx, Pose(scaled_pos, UP))
    assert theta1 == pytest.approx(theta2, abs=1e-9)
    assert psi1 == pytest.approx(psi2, abs=1e-9)


def test_angles_cover_full_range():
    # Receiver behind the emitter: theta > pi/2; both angles stay in [0, pi].
    d, theta, psi = link_geometry(Pose(Vec3(0, 0, 0), DOWN), Pose(Vec3(0, 0, 1.0), UP))
    assert theta == pytest.approx(math.pi, abs=1e-12)
    assert psi == pytest.approx(math.pi, abs=1e-12)
