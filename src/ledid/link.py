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
field evaluations over dark or one-sided regions never abort. Huge but
finite parameters (``power_w: 1e300``) can overflow the budget itself; a
received power, signal, interference or noise that is not finite raises
ParameterError, in both paths through the one check ``_check_budget``.

``evaluate_link`` is the scalar reference for one position. The batch
kernel, ``evaluate_points``, returns the same quantities for many positions
as columns, for one data tag or for one tag per position, and every value
it returns is bit-identical to the scalar one:

* numpy does only what IEEE 754 rounds exactly (+, -, *, /, sqrt and
  comparisons), in the scalar code's operation order, e.g.
  ``((m+1) A) cos(theta)^m cos(psi) g / ((2 pi d) d)``; elementwise these
  give the same bits as the same Python float expression. That covers the
  cosines, dot products over d, and the field-of-view test on cos(psi).
* The one transcendental is the C library's ``pow`` for cos(theta)^m,
  which float ``**`` calls too, here as ``math.pow`` on Python floats for
  the lit pairs only, where both cosines are positive or nan (a negative
  base would raise). numpy's ``power`` and
  ``exp`` differ from the C library in the last bit on some inputs and
  machines, so neither is used.
* Sums over luminaires are the scalar path's ``math.fsum``, bit for bit.
  Every term is >= 0, so a point with at most two nonzero terms sums
  exactly in numpy's row sum: adding +0.0 is exact, and the one addition
  rounds once, to the correctly rounded sum fsum returns. Points with more
  take an error-free extraction over the whole block that certifies that
  sum, or else fsum (``_row_sums``: near ties, tiny or huge rows, inf and
  nan). No result depends on term order (``a + b == b + a``, and zeros
  add exactly), so mirror-symmetric layouts stay exactly symmetric.
* Noise is ``total_noise_variance`` on the whole column, whose elements
  get the bits a float gets. SNR and BER are computed a column at a time
  in the operation order of ``snr`` and ``ber_bfsk``, with their 0 and
  inf sentinels, and ``math.exp`` per value.

``segments_may_pass`` bounds the SNR over straight segments of positions,
for the coverage search. It applies the kernel's own lit test, gain
expression, signal terms and noise to bounds of the distances and cosines;
only cos(theta)^m differs, numpy's ``power`` there, as a bound needs speed
more than the last bit, which its margin covers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import channel_gain
from .errors import GeometryError, ParameterError, check_positive_finite
from .geometry import Pose, Vec3
from .noise import total_noise_variance

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

# evaluate_points and analysis.scenario_critical_distance work in blocks of
# about this many pairs, so no temporary grows with the batch.
_BLOCK_PAIRS = 8192
# Relative margin on every bound of segments_may_pass: lengths (distances
# and dot products) widen by it times the magnitude of the coordinates
# they come from, and so do the cosines formed from them; gains and sums
# widen by it times themselves. Rounding in the positions and in the
# kernel moves those values by a few units in the last place, about 1e-15
# of the same scales, and a Lambertian power of order m multiplies a
# cosine's relative error by m; 1e-6 covers both by orders of magnitude.
# On L1 and G1 it keeps the same ladder steps as a margin of 1e-9.
_BOUND_MARGIN = 1.0e-6


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
        check_positive_finite(self, "baseband_power")


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


@dataclass(frozen=True)
class LuminaireArrays:
    """A scenario's luminaires as the batch kernel reads them.

    Entry ``j`` of every array belongs to luminaire ``j``: its tag, optical
    power, modulation depth, baseband power, position (row of ``tx``), axis
    (row of ``tx_axis``) and Lambertian order, as the same floats the
    models hold. The arrays are read-only, so one set can serve every call.
    """

    tags: np.ndarray
    power: np.ndarray
    mod_index: np.ndarray
    baseband: np.ndarray
    tx: np.ndarray
    tx_axis: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, luminaires: Sequence) -> "LuminaireArrays":
        arrays = (
            np.array([lum.tag for lum in luminaires]),
            np.array([lum.emitter.power_w for lum in luminaires]),
            np.array([lum.modulation.mod_index for lum in luminaires]),
            np.array([lum.modulation.baseband_power for lum in luminaires]),
            np.array([[lum.pose.position.x, lum.pose.position.y, lum.pose.position.z]
                      for lum in luminaires]),
            np.array([[lum.pose.axis.x, lum.pose.axis.y, lum.pose.axis.z] for lum in luminaires]),
            np.array([lum.emitter.lambertian_order for lum in luminaires]),
        )
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)


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
    scenario.check_tags((data_tag_id,))
    detector = scenario.detector
    rx = Pose(position, scenario.receiver_axis)

    gains = []
    power_terms = []
    signal_terms = []
    interference_terms = []
    r = detector.responsivity_a_per_w
    for lum in scenario.luminaires:
        h = channel_gain(lum.pose, lum.emitter, rx, detector)
        gains.append((lum.tag, h))
        power_terms.append(h * lum.emitter.power_w)
        amplitude = r * h * lum.emitter.power_w * lum.modulation.mod_index
        term = amplitude * amplitude * lum.modulation.baseband_power
        if lum.tag == data_tag_id:
            signal_terms.append(term)
        else:
            interference_terms.append(term)

    received_power, signal_ms, interference_ms = map(
        _fsum_or_inf, (power_terms, signal_terms, interference_terms))
    noise_variance = total_noise_variance(received_power, detector, scenario.noise)
    _check_budget(received_power, signal_ms, interference_ms, noise_variance)
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


def evaluate_points(scenario: "Scenario", positions, data_tag_id) -> LinkColumns:
    """Link budgets at many receiver positions, for one data tag or one per position.

    ``positions`` is an (n, 3) array-like of x, y, z in meters.
    ``data_tag_id`` is one tag for every position, or a list, tuple or
    array of n tags, one per position. Entry ``i`` is bit-identical to
    ``evaluate_link`` at position ``i`` for its tag (see the module
    docstring), and the same errors are raised: TagNotFoundError for an
    unknown tag, GeometryError when a position coincides with a luminaire,
    ParameterError when the budget at any position is not finite.
    """
    per_point = isinstance(data_tag_id, (list, tuple, np.ndarray))
    scenario.check_tags(data_tag_id if per_point else (data_tag_id,))
    points = _as_points(positions)
    lamps = scenario.luminaire_arrays
    tags = np.asarray(data_tag_id)
    if per_point and tags.shape != (len(points),):
        raise ParameterError(f"expected one data tag per position, got {len(tags)} for {len(points)}")

    # Rows h_data, received power, signal and interference, one column per position.
    sums = np.empty((4, len(points)))
    step = max(1, _BLOCK_PAIRS // len(lamps.tags))
    for start in range(0, len(points), step):
        h = luminaire_gains(scenario, points[start:start + step])
        incident, terms = _signal_terms(scenario, h)
        # Zeros where a lamp is not the position's data tag: adding +0.0 is
        # exact, and _row_sums counts only the nonzero terms.
        data = (tags[start:start + step, None] if per_point else tags) == lamps.tags
        rows = (np.where(data, h, 0.0), incident, np.where(data, terms, 0.0), np.where(data, 0.0, terms))
        sums[:, start:start + step] = _row_sums(np.concatenate(rows)).reshape(4, -1)
    h_data, received, signal, interference = sums
    with np.errstate(over="ignore"):  # a noise that overflows is inf, for _check_budget
        noise = total_noise_variance(received, scenario.detector, scenario.noise)
    _check_budget(received, signal, interference, noise)
    snrs, bers = _snr_and_ber(signal, interference, noise)
    return LinkColumns(*(array("d", column.tobytes())
                         for column in (h_data, received, signal, interference, noise, snrs, bers)))


def luminaire_gains(scenario: "Scenario", positions) -> np.ndarray:
    """Channel gain of every luminaire at every receiver position.

    Returns an (n, luminaires) float64 array whose entry ``[i, j]`` is
    bit-identical to ``channel_gain`` from luminaire ``j`` to a receiver at
    position ``i`` facing ``scenario.receiver_axis``. Temporaries are a few
    times the result's size; ``evaluate_points`` calls it block by block.
    """
    points = _as_points(positions)
    lamps = scenario.luminaire_arrays
    tx, tx_axis = lamps.tx, lamps.tx_axis
    rx_axis = scenario.receiver_axis

    # delta = rx - tx; entry [i, j] pairs position i with luminaire j.
    dx = points[:, 0:1] - tx[:, 0]
    dy = points[:, 1:2] - tx[:, 1]
    dz = points[:, 2:3] - tx[:, 2]
    d = np.sqrt(dx * dx + dy * dy + dz * dz)
    if not d.all():
        raise GeometryError("emitter and receiver positions coincide")
    cos_theta = (tx_axis[:, 0] * dx + tx_axis[:, 1] * dy + tx_axis[:, 2] * dz) / d
    cos_psi = -(rx_axis.x * dx + rx_axis.y * dy + rx_axis.z * dz) / d
    return _gains(scenario, d, cos_theta, cos_psi, _float_pow)


def segments_may_pass(scenario: "Scenario", tag_id: str, start: np.ndarray, end: np.ndarray,
                      threshold: float) -> np.ndarray:
    """Whether each segment might hold a position where ``tag_id`` reads.

    Segment ``k`` runs from ``start[k]`` to ``end[k]``; a position reads
    when its error rate is at most ``threshold``. Over a segment a lamp's
    distance lies between the closest approach and the farther end, and
    the dot products of the lamp's axis and the receiver's with the
    lamp-to-position vector lie between their end values. The kernel's
    lit test, gain, signal terms and noise on these bounds bound the SNR
    from above. A segment is ruled out (False) only when that bound is below
    the threshold's SNR and every upper bound is finite, so a position on a
    lamp, or one whose budget overflows, lies in a kept segment.
    """
    # A position reads when 0.5 exp(-snr / 2) <= threshold, i.e. snr >=
    # -2 ln(2 threshold). Below this target, with the margin, the error rate
    # exceeds threshold * (1 + margin): rounding in exp and log cannot pass.
    target = -2.0 * math.log(2.0 * threshold * (1.0 + _BOUND_MARGIN))
    lamps = scenario.luminaire_arrays
    rx_axis = np.array([scenario.receiver_axis.x, scenario.receiver_axis.y, scenario.receiver_axis.z])
    up, down = 1.0 + _BOUND_MARGIN, 1.0 - _BOUND_MARGIN
    # Entry [k, j] pairs segment k with lamp j.
    e0, e1 = start[:, None, :] - lamps.tx, end[:, None, :] - lamps.tx
    u = (end - start)[:, None, :]
    # Lengths widen by the margin times the magnitudes they are computed
    # from, which bounds their rounding.
    slack = _BOUND_MARGIN * ((np.abs(start).sum(axis=1) + np.abs(end).sum(axis=1))[:, None]
                             + np.abs(lamps.tx).sum(axis=1))
    with np.errstate(all="ignore"):
        # fmax takes a zero-length segment's 0 / 0 to its start.
        t = np.fmin(np.fmax(-(e0 * u).sum(axis=2) / (u * u).sum(axis=2), 0.0), 1.0)
        d_lo = np.maximum(_norm(e0 + t[..., None] * u) - slack, 0.0)
        d_hi = np.maximum(_norm(e0), _norm(e1)) + slack

        def cosine(dot0, dot1, axis_norm):
            # Upper and lower bounds of dot / d. A negative bound only has
            # to stay negative: the pair is then unlit, or not surely lit.
            hi = np.minimum((np.maximum(dot0, dot1) + slack) / d_lo, axis_norm * up)
            return hi, (np.minimum(dot0, dot1) - slack) / d_hi

        theta_hi, theta_lo = cosine((e0 * lamps.tx_axis).sum(axis=2), (e1 * lamps.tx_axis).sum(axis=2),
                                    _norm(lamps.tx_axis))
        psi_hi, psi_lo = cosine(-(e0 @ rx_axis), -(e1 @ rx_axis), np.sqrt(rx_axis @ rx_axis))
        # Lit on the upper cosine bounds: might be lit; on the lower: lit throughout.
        incident_hi, terms_hi = _signal_terms(scenario, _gains(scenario, d_lo, theta_hi, psi_hi, np.power) * up)
        incident_lo, terms_lo = _signal_terms(scenario, _gains(scenario, d_hi, theta_lo, psi_lo, np.power) * down)
        data = lamps.tags == tag_id
        signal_hi = terms_hi[:, data].sum(axis=1) * up
        interference_hi = terms_hi[:, ~data].sum(axis=1) * up
        interference_lo = terms_lo[:, ~data].sum(axis=1) * down
        power_hi = incident_hi.sum(axis=1) * up
        noise_hi = total_noise_variance(power_hi, scenario.detector, scenario.noise) * up
        noise_lo = total_noise_variance(incident_lo.sum(axis=1) * down, scenario.detector, scenario.noise) * down
        # A dark data tag bounds the SNR by 0, as in _snr_and_ber, not by 0 / 0 =
        # nan (no noise, no interference). From a threshold of 0.5 / (1 + margin)
        # up the target is not positive, so the segment is kept, as from 0.5 up it must be.
        snr_hi = np.where(signal_hi == 0.0, 0.0, signal_hi / (noise_lo + interference_lo))
    finite = np.isfinite(signal_hi) & np.isfinite(interference_hi) & np.isfinite(power_hi) & np.isfinite(noise_hi)
    return ~(finite & (snr_hi < target))


def _gains(scenario: "Scenario", d, cos_theta, cos_psi, power) -> np.ndarray:
    # channel_gain for each (position, lamp) pair from its distance and
    # cosines, with power(base, m) for cos(theta)^m on the lit pairs. The
    # lit test is channel_gain's zero test negated: a nan cosine is lit.
    det = scenario.detector
    lit = ~((cos_psi < det.cos_fov) | (cos_theta <= 0.0))
    m = np.broadcast_to(scenario.luminaire_arrays.order, lit.shape)[lit]
    dist = d[lit]
    h = np.zeros(lit.shape)
    # A huge area_m2 or gain overflows this product to inf (or nan against
    # a zero cosine power); evaluate_points rejects the budget that follows.
    with np.errstate(over="ignore", invalid="ignore"):
        h[lit] = ((m + 1.0) * det.area_m2 * power(cos_theta[lit], m) * cos_psi[lit] * det.gain
                  / (2.0 * math.pi * dist * dist))
    return h


def _float_pow(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    # The C library's pow on Python floats, as float ** calls it: numpy's
    # power may differ from it in the last bit (see the module docstring).
    return np.fromiter(map(math.pow, base.tolist(), exponent.tolist()), float, len(base))


def _signal_terms(scenario: "Scenario", h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Incident power h P and mean-square signal (R h P mu)^2 E of each pair.
    # A huge power_w or an infinite gain overflows them, for _check_budget.
    lamps = scenario.luminaire_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = scenario.detector.responsivity_a_per_w * h * lamps.power * lamps.mod_index
        return h * lamps.power, amplitude * amplitude * lamps.baseband


def _check_budget(received_power, signal_ms, interference_ms, noise_variance) -> None:
    # The one finiteness rule of a link budget, for one point (floats) or
    # many (whole columns at once). SNR may still be inf: a signal with
    # neither noise nor interference.
    for name, value in (("received power", received_power), ("signal", signal_ms),
                        ("interference", interference_ms), ("noise", noise_variance)):
        if not np.isfinite(value).all():
            raise ParameterError(f"link budget overflows: {name} is not finite "
                                 f"(power_w or detector values too large)")


def _row_sums(terms: np.ndarray) -> np.ndarray:
    # _fsum_or_inf of each row of non-negative terms. A row with at most two
    # nonzero terms sums exactly in numpy: adding +0.0 is exact and one
    # addition rounds once, to the float fsum gives (inf where it overflows).
    # The other rows, n terms below 2**e, by error-free extraction (Rump, Ogita
    # and Oishi 2008): with sigma = 2**(e + k), 2**k >= n + 2, the parts q =
    # (sigma + t) - sigma sum exactly, t - q is exact and sums to within
    # 2 n**2 2**-106 sigma, and TwoSum gives tau + rho = f + err exactly. f is
    # fsum's sum where |err| plus that bound is under half the gap below f;
    # the guards keep every step normal and finite. Other rows take fsum.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = terms.sum(axis=1)
        many = (terms != 0.0).sum(axis=1) > 2
        if not many.any():
            return sums
        t = terms[many]
        n = t.shape[1]
        k = (n + 1).bit_length()
        top = t.max(axis=1)
        sure = (top >= 2.0 ** -800) & (top <= 2.0 ** (1000 - k))
        sigma = np.ldexp(1.0, np.frexp(top)[1] + k)[:, None]  # under- or overflows only outside the guards
        q = (sigma + t) - sigma
        tau, rho = q.sum(axis=1), (t - q).sum(axis=1)
        f = tau + rho
        b = f - tau
        err = (tau - (f - b)) + (rho - b)
        sure &= np.abs(err) + 2.0 * n * n * 2.0 ** -106 * sigma[:, 0] < (f - np.nextafter(f, 0.0)) / 2
    if not sure.all():
        f[~sure] = list(map(_fsum_or_inf, t[~sure].tolist()))
    sums[many] = f
    return sums


def _snr_and_ber(signal: np.ndarray, interference: np.ndarray,
                 noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # snr and ber_bfsk on whole columns of a finite budget, in their
    # operation order: a positive signal over a zero denominator is the
    # infinite sentinel, whose error rate 0.5 exp(-inf) is 0.
    with np.errstate(all="ignore"):
        snrs = np.where(signal == 0.0, 0.0, signal / (noise + interference))
    return snrs, 0.5 * np.fromiter(map(math.exp, (-0.5 * snrs).tolist()), float, len(snrs))


def _fsum_or_inf(terms: list[float]) -> float:
    # fsum raises OverflowError where the exact sum of finite terms passes
    # the largest float; such a sum reads inf, for _check_budget to reject.
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1))


def _as_points(positions) -> np.ndarray:
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ParameterError(f"positions must have shape (n, 3), got {points.shape}")
    if not np.isfinite(points).all():
        raise ParameterError("position components must be finite")
    return points
