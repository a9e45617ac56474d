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

``evaluate_link`` is the scalar reference for one position. The batch
kernel, ``evaluate_points``, returns the same quantities for many positions
as columns, and every value it returns is bit-identical to the scalar one:

* numpy does only what IEEE 754 rounds exactly (+, -, *, /, sqrt and
  comparisons), in the scalar code's operation order, e.g.
  ``((m+1) A) cos(theta)^m cos(psi) g / ((2 pi d) d)``; elementwise these
  give the same bits as the same Python float expression.
* Every transcendental goes through the call the scalar path makes, mapped
  over Python floats: ``math.atan2``, ``math.cos`` and float ``pow``.
  numpy's own ``arctan2``, ``power`` and ``exp`` differ from the C library
  in the last bit on some inputs and machines, so none is used.
* Sums over luminaires use ``math.fsum`` per point, as the scalar path
  does; a correctly rounded sum does not depend on term order.
* theta is computed only where psi passes the field of view, and the power
  only where both cosines are positive: there ``channel_gain`` returns 0.0,
  and a float ``pow`` of a negative base would be complex.
* Noise, SNR and BER are the scalar functions applied per point.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import DetectorModel, EmitterModel, channel_gain
from .errors import GeometryError, ParameterError, TagNotFoundError
from .geometry import Pose, Vec3
from .noise import total_noise_variance

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

# evaluate_points works through the positions in blocks of about this many
# (position, luminaire) pairs, so no temporary grows with the batch.
_BLOCK_PAIRS = 8192


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
        if not (self.baseband_power > 0.0 and math.isfinite(self.baseband_power)):
            raise ParameterError(f"baseband_power: must be positive and finite, got {self.baseband_power}")


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


@dataclass(frozen=True)
class LinkColumns:
    """Link budgets at many receiver positions for one data tag.

    Each column is a float array (``array('d')``: 8 bytes per value,
    Python floats on access, compared by value). Entry ``i`` of every
    column belongs to position ``i`` and equals the same field of
    ``evaluate_link`` there; ``h_data`` is its ``data_gain(tag)``, the
    total gain of the data tag's luminaires.
    """

    h_data: array
    received_power_w: array
    signal_ms_a2: array
    interference_ms_a2: array
    noise_variance_a2: array
    snr: array
    ber: array


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


def evaluate_points(scenario: "Scenario", positions, data_tag_id: str) -> LinkColumns:
    """Link budgets for ``data_tag_id`` at many receiver positions.

    ``positions`` is an (n, 3) array-like of x, y, z in meters. The result
    is bit-identical to ``evaluate_link`` at each position (see the module
    docstring), and raises the same errors: TagNotFoundError for an unknown
    tag, GeometryError when a position coincides with a luminaire.
    """
    scenario.luminaires_for(data_tag_id)
    points = _as_points(positions)
    luminaires = scenario.luminaires
    detector = scenario.detector
    data = np.array([lum.tag == data_tag_id for lum in luminaires])
    power = np.array([lum.emitter.power_w for lum in luminaires])
    mod_index = np.array([lum.modulation.mod_index for lum in luminaires])
    baseband = np.array([lum.modulation.baseband_power for lum in luminaires])
    r = detector.responsivity_a_per_w

    h_data, received, signal, interference = array("d"), array("d"), array("d"), array("d")
    step = max(1, _BLOCK_PAIRS // len(luminaires))
    for start in range(0, len(points), step):
        h = luminaire_gains(scenario, points[start:start + step])
        amplitude = r * h * power * mod_index
        terms = amplitude * amplitude * baseband
        h_data.extend(map(math.fsum, h[:, data].tolist()))
        received.extend(map(math.fsum, (h * power).tolist()))
        signal.extend(map(math.fsum, terms[:, data].tolist()))
        interference.extend(map(math.fsum, terms[:, ~data].tolist()))
    noise = array("d", (total_noise_variance(p, detector, scenario.noise) for p in received))
    snrs = array("d", map(snr, signal, interference, noise))
    return LinkColumns(h_data, received, signal, interference, noise, snrs, array("d", map(ber_bfsk, snrs)))


def luminaire_gains(scenario: "Scenario", positions) -> np.ndarray:
    """Channel gain of every luminaire at every receiver position.

    Returns an (n, luminaires) float64 array whose entry ``[i, j]`` is
    bit-identical to ``channel_gain`` from luminaire ``j`` to a receiver at
    position ``i`` facing ``scenario.receiver_axis``. Temporaries are a few
    times the result's size; ``evaluate_points`` calls it block by block.
    """
    points = _as_points(positions)
    luminaires = scenario.luminaires
    detector = scenario.detector
    tx = np.array([[lum.pose.position.x, lum.pose.position.y, lum.pose.position.z]
                   for lum in luminaires])
    tx_axis = np.array([[lum.pose.axis.x, lum.pose.axis.y, lum.pose.axis.z] for lum in luminaires])
    order = np.array([lum.emitter.lambertian_order for lum in luminaires])
    rx_axis = scenario.receiver_axis
    count = len(luminaires)

    # delta = rx - tx per pair, flattened point-major: pair k is point
    # k // count and luminaire k % count.
    dx = (points[:, 0:1] - tx[:, 0]).ravel()
    dy = (points[:, 1:2] - tx[:, 1]).ravel()
    dz = (points[:, 2:3] - tx[:, 2]).ravel()
    d = np.sqrt(dx * dx + dy * dy + dz * dz)
    if not d.all():
        raise GeometryError("emitter and receiver positions coincide")
    psi = _angles(rx_axis.x, rx_axis.y, rx_axis.z, -dx, -dy, -dz)
    seen = np.flatnonzero(psi <= math.radians(detector.fov_deg))
    lamp = seen % count
    theta = _angles(tx_axis[lamp, 0], tx_axis[lamp, 1], tx_axis[lamp, 2], dx[seen], dy[seen], dz[seen])
    cos_theta = _each(math.cos, theta)
    cos_psi = _each(math.cos, psi[seen])
    front = (cos_theta > 0.0) & (cos_psi > 0.0)
    lit = seen[front]
    lamp = lamp[front]
    m = order[lamp]
    cos_theta_m = _each(pow, cos_theta[front], m)
    dist = d[lit]
    h = np.zeros(len(points) * count)
    h[lit] = ((m + 1.0) * detector.area_m2 * cos_theta_m * cos_psi[front] * detector.gain
              / (2.0 * math.pi * dist * dist))
    return h.reshape(len(points), count)


def _as_points(positions) -> np.ndarray:
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ParameterError(f"positions must have shape (n, 3), got {points.shape}")
    if not np.isfinite(points).all():
        raise ParameterError("position components must be finite")
    return points


def _angles(ax, ay, az, vx, vy, vz) -> np.ndarray:
    # geometry._angle_between over arrays: atan2(|a x v|, a . v).
    cx = ay * vz - az * vy
    cy = az * vx - ax * vz
    cz = ax * vy - ay * vx
    cross = np.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ax * vx + ay * vy + az * vz
    return _each(math.atan2, cross, dot)


def _each(fn, *columns: np.ndarray) -> np.ndarray:
    # ``fn`` applied element by element to Python floats: the very call the
    # scalar path makes, so the results carry the same bits.
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))
