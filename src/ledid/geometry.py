"""Vectors and poses.

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
