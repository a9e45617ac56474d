import math

import pytest
from hypothesis import given, strategies as st

from ledid import GeometryError, ParameterError, Pose, Vec3

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


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
    offset = Vec3(0.5, 0.5, 0.5) - pose.position
    assert pose.axis.dot(offset) / offset.norm() >= 1.0 - 1e-15


@given(ax=coords, ay=coords, az=coords, bx=coords, by=coords, bz=coords)
def test_distance_is_symmetric(ax, ay, az, bx, by, bz):
    a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
    assert (a - b).norm() == (b - a).norm()
