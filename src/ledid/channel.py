"""Lambertian emission and the line-of-sight channel gain.

A generalized Lambertian source with half-power semi-angle t radiates

    I(theta) = P (m + 1) / (2 pi) * cos(theta)^m,    m = -ln 2 / ln(cos t)

and a bare photodiode of area A, field-of-view semi-angle F and constant
concentrator gain g sitting at distance d collects the dimensionless gain

    h = (m + 1) A g cos(theta)^m cos(psi) / (2 pi d^2)

as long as the incidence angle psi stays within F. Outside the field of
view, or behind either the emitter or the detector face, the gain is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError
from .geometry import Pose, link_geometry


def lambertian_order(semi_angle_deg: float) -> float:
    """Lambertian order m for a half-power semi-angle in degrees.

    The semi-angle must lie strictly between 0 and 90 degrees; at either
    end the defining logarithm is singular.
    """
    if not 0.0 < semi_angle_deg < 90.0:
        raise ParameterError(
            f"semi_angle_deg: must be in (0, 90) degrees, got {semi_angle_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


@dataclass(frozen=True)
class EmitterModel:
    """One LED source: optical power in watts and its beam shape."""

    power_w: float
    semi_angle_deg: float
    lambertian_order: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.power_w > 0.0 and math.isfinite(self.power_w)):
            raise ParameterError(f"power_w: must be positive and finite, got {self.power_w}")
        object.__setattr__(self, "lambertian_order", lambertian_order(self.semi_angle_deg))

    @classmethod
    def from_order(cls, power_w: float, order: float) -> "EmitterModel":
        """Build an emitter from a Lambertian order instead of a semi-angle."""
        if not order > 0.0:
            raise ParameterError(f"Lambertian order must be positive, got {order}")
        return cls(power_w, math.degrees(math.acos(2.0 ** (-1.0 / order))))


@dataclass(frozen=True)
class DetectorModel:
    """Non-imaging photodiode front end.

    ``gain`` is the (constant) optical concentrator gain; ``responsivity``
    converts incident optical watts to photocurrent amperes; ``bandwidth``
    is the equivalent noise bandwidth of the receiver chain.
    """

    area_m2: float
    fov_deg: float
    gain: float
    responsivity_a_per_w: float = 0.54
    bandwidth_hz: float = 1.0e4

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_deg <= 90.0:
            raise ParameterError(f"fov_deg: must be in (0, 90] degrees, got {self.fov_deg}")
        for name in ("area_m2", "gain", "responsivity_a_per_w", "bandwidth_hz"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{name}: must be positive and finite, got {value}")


def radiant_intensity(theta_rad: float, emitter: EmitterModel) -> float:
    """Radiant intensity in W/sr at angle ``theta_rad`` off boresight."""
    c = math.cos(theta_rad)
    if c <= 0.0:
        return 0.0
    m = emitter.lambertian_order
    return emitter.power_w * (m + 1.0) / (2.0 * math.pi) * c ** m


def channel_gain(tx: Pose, emitter: EmitterModel, rx: Pose, detector: DetectorModel) -> float:
    """Line-of-sight channel gain between one luminaire and one detector.

    The field-of-view cutoff applies to the incidence angle psi; a detector
    physically constrains the direction light arrives from. Emission past
    90 degrees off boresight and incidence from behind the detector both
    yield zero as well.
    """
    d, theta, psi = link_geometry(tx, rx)
    if psi > math.radians(detector.fov_deg):
        return 0.0
    cos_theta = math.cos(theta)
    cos_psi = math.cos(psi)
    if cos_theta <= 0.0 or cos_psi <= 0.0:
        return 0.0
    m = emitter.lambertian_order
    return (m + 1.0) * detector.area_m2 * cos_theta ** m * cos_psi * detector.gain / (2.0 * math.pi * d * d)
