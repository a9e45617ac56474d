"""Vectors, poses, and the two viewing angles of an optical link.

Coordinates are in meters with z vertical. Luminaires hang on a horizontal
plane and face -z; receivers face +z unless their pose says otherwise, so
the default arrangement keeps the photodiode parallel to the luminaire
plane. Tilted hardware is expressed through an arbitrary unit axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError, ParameterError

AXIS_TOL = 1e-9


@dataclass(frozen=True)
class Vec3:
    """Cartesian point or direction; components in meters for positions."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ParameterError(f"vector components must be finite, got ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, factor: float) -> "Vec3":
        return Vec3(factor * self.x, factor * self.y, factor * self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise GeometryError("cannot normalize the zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)


@dataclass(frozen=True)
class Pose:
    """A position plus a unit facing axis (boresight or detector normal)."""

    position: Vec3
    axis: Vec3

    def __post_init__(self) -> None:
        n = self.axis.norm()
        if abs(n - 1.0) > AXIS_TOL:
            raise ParameterError(f"pose axis must be unit length, |axis| = {n}")

    @classmethod
    def aimed(cls, position: Vec3, target: Vec3) -> "Pose":
        """Pose at ``position`` with the axis pointing at ``target``."""
        offset = target - position
        if offset.norm() == 0.0:
            raise GeometryError("cannot aim a pose at its own position")
        return cls(position, offset.normalized())


def _angle_between(axis: Vec3, direction: Vec3) -> float:
    # atan2 of (cross magnitude, dot) is well conditioned at both 0 and pi,
    # unlike acos of the normalized dot, which loses half the significand
    # near alignment. It also cannot produce NaN for nonzero inputs.
    cx = axis.y * direction.z - axis.z * direction.y
    cy = axis.z * direction.x - axis.x * direction.z
    cz = axis.x * direction.y - axis.y * direction.x
    cross = math.sqrt(cx * cx + cy * cy + cz * cz)
    return math.atan2(cross, axis.dot(direction))


def link_geometry(tx: Pose, rx: Pose) -> tuple[float, float, float]:
    """Distance and viewing angles between an emitter and a receiver.

    Returns ``(d, theta, psi)``: the separation in meters, the angle between
    the emitter axis and the emitter-to-receiver direction, and the angle
    between the receiver axis and the receiver-to-emitter direction. Both
    angles are in radians within [0, pi].

    Raises GeometryError when the two positions coincide.
    """
    delta = rx.position - tx.position
    d = delta.norm()
    if d == 0.0:
        raise GeometryError("emitter and receiver positions coincide")
    return d, _angle_between(tx.axis, delta), _angle_between(rx.axis, delta.scaled(-1.0))
