"""Per-point link budget: signal, interference, SNR, and BFSK error rate.

The luminaires split into a data set (those carrying the wanted tag) and
an interferer set (everyone else). Each transmitter contributes a received
electrical amplitude R * h * P * mu; uncoordinated tags carry independent
basebands, so distinct luminaires add in power rather than amplitude:

    ms = sum_i (R h_i P_i mu_i)^2 * E[x_i^2]          [A^2]

    SNR = ms_data / (N + ms_interf)
    BER = exp(-SNR / 2) / 2          (binary FSK, non-coherent detection)

Edge conventions: zero data signal means the tag is unreadable (SNR 0,
BER 1/2) no matter what the denominator is; a positive signal with neither
noise nor interference maps to an infinite-SNR sentinel and BER 0 so that
field evaluations over dark or one-sided regions never abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .channel import DetectorModel, EmitterModel, channel_gain
from .errors import ParameterError, TagNotFoundError
from .geometry import Pose, Vec3
from .noise import total_noise_variance

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario


@dataclass(frozen=True)
class ModulationParams:
    """Intensity-modulation parameters of one luminaire.

    ``mod_index`` is the modulation depth around the DC illumination level;
    ``baseband_power`` is the mean square of the modulating waveform (0.5
    for a unit-amplitude sinusoidal carrier).
    """

    mod_index: float = 1.0
    baseband_power: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.mod_index <= 1.0:
            raise ParameterError(f"mod_index: must be in (0, 1], got {self.mod_index}")
        if not self.baseband_power > 0.0:
            raise ParameterError(f"baseband_power: must be positive, got {self.baseband_power}")


@dataclass(frozen=True)
class LinkBudget:
    """Everything computed at one receiver position for one data tag."""

    per_luminaire_gain: tuple[tuple[str, float], ...]
    received_power_w: float
    signal_ms_a2: float
    interference_ms_a2: float
    noise_variance_a2: float
    snr: float
    ber: float

    def data_gain(self, tag_id: str) -> float:
        """Total channel gain of the luminaires carrying ``tag_id``."""
        return math.fsum(h for tag, h in self.per_luminaire_gain if tag == tag_id)


def electrical_signal_ms(
    gains: Sequence[float],
    emitters: Sequence[EmitterModel],
    detector: DetectorModel,
    modulation: ModulationParams | Sequence[ModulationParams],
) -> float:
    """Mean-square electrical signal of one transmitter set, in A^2.

    ``modulation`` is either a single ModulationParams shared by the whole
    set or a sequence parallel to ``gains``.
    """
    if len(gains) != len(emitters):
        raise ParameterError(
            f"gains and emitters must be parallel lists, got {len(gains)} and {len(emitters)}")
    if isinstance(modulation, ModulationParams):
        mods: Sequence[ModulationParams] = [modulation] * len(gains)
    else:
        mods = list(modulation)
        if len(mods) != len(gains):
            raise ParameterError(
                f"modulation list must parallel gains, got {len(mods)} and {len(gains)}")
    r = detector.responsivity_a_per_w
    return math.fsum(
        (r * h * em.power_w * mo.mod_index) ** 2 * mo.baseband_power
        for h, em, mo in zip(gains, emitters, mods)
    )


def snr(signal_ms: float, interference_ms: float, noise_variance: float) -> float:
    """Signal-to-noise-plus-interference ratio with the edge conventions."""
    if signal_ms < 0.0 or interference_ms < 0.0 or noise_variance < 0.0:
        raise ParameterError("signal, interference and noise must all be >= 0")
    if signal_ms == 0.0:
        return 0.0
    denominator = noise_variance + interference_ms
    if denominator == 0.0:
        return math.inf
    return signal_ms / denominator


def ber_bfsk(snr_value: float) -> float:
    """Bit error rate of non-coherently detected binary FSK at a given SNR."""
    if snr_value < 0.0:
        raise ParameterError(f"SNR must be >= 0, got {snr_value}")
    if math.isinf(snr_value):
        return 0.0
    return 0.5 * math.exp(-0.5 * snr_value)


def evaluate_link(scenario: "Scenario", position: Vec3, data_tag_id: str) -> LinkBudget:
    """Full link budget at one receiver position for one data tag.

    Luminaires whose tag equals ``data_tag_id`` form the data set; all
    others interfere. The shot-noise power is driven by the total incident
    optical power from both sets.
    """
    luminaires = scenario.luminaires
    if not any(lum.tag == data_tag_id for lum in luminaires):
        raise TagNotFoundError(f"no luminaire carries tag {data_tag_id!r}")
    detector = scenario.detector
    rx = Pose(position, scenario.receiver_axis)

    gains = []
    power_terms = []
    signal_terms = []
    interference_terms = []
    r = detector.responsivity_a_per_w
    for lum in luminaires:
        h = channel_gain(lum.pose, lum.emitter, rx, detector)
        gains.append((lum.tag, h))
        power_terms.append(h * lum.emitter.power_w)
        amplitude = r * h * lum.emitter.power_w * lum.modulation.mod_index
        term = amplitude * amplitude * lum.modulation.baseband_power
        if lum.tag == data_tag_id:
            signal_terms.append(term)
        else:
            interference_terms.append(term)

    received_power = math.fsum(power_terms)
    signal_ms = math.fsum(signal_terms)
    interference_ms = math.fsum(interference_terms)
    noise_variance = total_noise_variance(received_power, detector, scenario.noise)
    snr_value = snr(signal_ms, interference_ms, noise_variance)
    return LinkBudget(
        per_luminaire_gain=tuple(gains),
        received_power_w=received_power,
        signal_ms_a2=signal_ms,
        interference_ms_a2=interference_ms,
        noise_variance_a2=noise_variance,
        snr=snr_value,
        ber=ber_bfsk(snr_value),
    )
