"""Receiver noise variance.

At tag-broadcast data rates the receiver is shot-noise limited:

    sigma_shot^2 = 2 q R P B  +  2 q I_bg I2 B        [A^2]

where P is the total incident optical power from every luminaire (the
interferers generate photocurrent too), I_bg is the ambient background
current, and I2 is the noise-bandwidth factor of the receiver front end.
Thermal and intersymbol terms have no closed form here; they are accepted
as user-supplied constants and default to zero. Mapping ambient light
levels (lux) to a background current is likewise left to the caller.
The received power may also be a numpy array, whose elements get the bits
a float would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DetectorModel
from .errors import ParameterError

ELECTRON_CHARGE_C = 1.602176634e-19


@dataclass(frozen=True)
class NoiseParams:
    """Ambient and constant noise contributions, all finite and non-negative."""

    background_current_a: float = 0.0
    i2: float = 0.56
    thermal_a2: float = 0.0
    isi_a2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("background_current_a", "i2", "thermal_a2", "isi_a2"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ParameterError(f"{name}: must be finite and >= 0, got {value}")


def shot_noise_variance(received_power_w: float, detector: DetectorModel, params: NoiseParams) -> float:
    """Shot-noise variance in A^2 for a given total incident optical power."""
    if np.less(received_power_w, 0.0).any():
        raise ParameterError(f"received power must be >= 0, got {np.min(received_power_w)}")
    q = ELECTRON_CHARGE_C
    b = detector.bandwidth_hz
    signal_term = 2.0 * q * detector.responsivity_a_per_w * received_power_w * b
    ambient_term = 2.0 * q * params.background_current_a * params.i2 * b
    return signal_term + ambient_term


def total_noise_variance(received_power_w: float, detector: DetectorModel, params: NoiseParams) -> float:
    """Shot noise plus the user-supplied thermal and intersymbol constants."""
    return shot_noise_variance(received_power_w, detector, params) + params.thermal_a2 + params.isi_a2
