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
Overflow is expected and that check is its one rule (a distance past the
largest float gives gain 0); numpy's error state says so once per entry:
``evaluate_points``, ``segments_may_pass``, ``analysis``'s lamp spacing.

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
  base would raise). Both paths give ``channel.cos_power``'s value, inf
  where it overflows, for ``_check_budget``. numpy's ``power``
  and ``exp`` differ from the C library in the last bit on some inputs and
  machines, so neither is used.
* Sums over luminaires are the scalar path's ``math.fsum``, bit for bit.
  Every term is >= 0, so a point with at most two nonzero terms sums
  exactly in numpy's row sum: adding +0.0 is exact, and the one addition
  rounds once, to the correctly rounded sum fsum returns. Points with more
  take fsum itself in a block with few such terms, and otherwise an
  error-free extraction over the whole block that certifies that sum, or
  else fsum (``_row_sums``: near ties, tiny or huge rows, inf and nan). No
  result depends on term order (``a + b == b + a``, and zeros add
  exactly), so mirror-symmetric layouts stay exactly symmetric.
* Noise is ``total_noise_variance`` on the whole column, whose elements
  get the bits a float gets. SNR and BER are computed a column at a time
  in the operation order of ``snr`` and ``ber_bfsk``, with their 0 and
  inf sentinels, and ``math.exp`` per value.

The kernel lays each block of positions out luminaires first: distances,
cosines, gains and the summed rows are (luminaires, positions) arrays read
as [position, lamp] through transposed views, so sums over lamps run along
memory, all in one workspace per call that every block writes with ``out=``.

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

from .channel import channel_gain, cos_power
from .errors import GeometryError, ParameterError, check_positive_finite
from .geometry import Pose, Vec3
from .noise import total_noise_variance

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

# evaluate_points and segments_may_pass work in blocks of about _BLOCK_PAIRS
# (position or segment, lamp) pairs, so no temporary grows with the batch.
# evaluate_points raises a block to _BLOCK_POSITIONS positions while it
# holds at most 4 _BLOCK_PAIRS pairs: a 33 x 33 grid of 256 lamps took
# 21.8, 18.9 and 17.1 ms in blocks of 32, 64 and 128 positions, and a 64 x 64
# grid of 1,024 lamps 298, 229 and 212 ms in 8, 32 and 128, the last with an
# 11 MiB peak (minima of 3 to 15 runs, 2-vCPU Xeon, numpy 2.4).
_BLOCK_PAIRS = 8192
_BLOCK_POSITIONS = 128
# _row_sums sums a block's rows of three or more nonzero terms by fsum while
# they hold at most _FSUM_TERMS terms in all, and by the extraction past that.
# On the rows the kernel passes it, fsum took 17, 22 and 34 us against 29,
# 31 and 57 for the extraction at 93 terms (L1), 270 (G1) and 512 (a 256-lamp
# ceiling), and 45, 37 and 66 against 38, 33 and 67 at 381, 558 and 1,536
# (minima of 9 runs, 2-vCPU Xeon, numpy 2.4). Without the switch the
# benchmark's planning median op took 2.6% longer (9 of 10 interleaved pairs).
_FSUM_TERMS = 512
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

    Entry ``j`` of every array belongs to luminaire ``j``: its tag, the
    tag's code (from ``tag_codes``: its index in the scenario's tags()),
    optical power, modulation depth, baseband power, position (row of
    ``tx``), axis (row of ``tx_axis``) and Lambertian order, as the same
    floats the models hold. The arrays are read-only, so one set can serve
    every call.
    """

    tags: np.ndarray
    codes: np.ndarray
    power: np.ndarray
    mod_index: np.ndarray
    baseband: np.ndarray
    tx: np.ndarray
    tx_axis: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, luminaires: Sequence, tag_codes: dict[str, int]) -> "LuminaireArrays":
        arrays = (
            np.array([lum.tag for lum in luminaires]),
            np.array([tag_codes[lum.tag] for lum in luminaires]),
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
    if not (signal_ms >= 0.0 and interference_ms >= 0.0 and noise_variance >= 0.0):
        raise ParameterError("signal, interference and noise must all be >= 0")
    if signal_ms == 0.0:
        return 0.0
    denominator = noise_variance + interference_ms
    if denominator == 0.0:
        return math.inf
    return signal_ms / denominator


def ber_bfsk(snr_value: float) -> float:
    """Bit error rate of non-coherently detected binary FSK at a given SNR."""
    if not snr_value >= 0.0:
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
    scenario.tag_codes((data_tag_id,))
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
    points = _as_points(positions)
    if per_point and np.shape(data_tag_id) != (len(points),):
        raise ParameterError(f"expected one data tag per position, got shape {np.shape(data_tag_id)} "
                             f"for {len(points)} positions")
    # Each position's data tag as its code; one tag fills every position.
    wanted = np.empty(len(points), dtype=np.intp)
    wanted[:] = scenario.tag_codes(data_tag_id if per_point else (data_tag_id,))
    lamps = scenario.luminaire_arrays

    # One workspace of seven (lamps, positions) arrays serves every block: the
    # gains _luminaire_gains leaves, the signal terms, a spare, then the rows
    # to sum: h_data, received power, signal and interference.
    n, k = len(points), len(lamps.tags)
    step = max(1, _BLOCK_PAIRS // k, min(_BLOCK_POSITIONS, 4 * _BLOCK_PAIRS // k))
    work = np.empty(7 * k * min(step, n))
    sums = np.empty((4, n))
    # d = inf gives gain 0, as in evaluate_link; _check_budget rejects any other value not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            block = points[start:start + step]
            size = k * len(block)
            h = _luminaire_gains(scenario, block, work[:7 * size])
            terms = work[size:2 * size].reshape(k, -1).T
            rows = work[3 * size:7 * size].reshape(k, -1)
            rows.fill(0.0)
            h_data, incident, signal, interference = rows.reshape(k, 4, -1).transpose(1, 2, 0)
            _signal_terms(scenario, h, incident, terms)
            # Zeros where a lamp is not the position's data tag: adding +0.0 is
            # exact, and _row_sums counts only the nonzero terms.
            data = wanted[start:start + step, None] == lamps.codes
            np.copyto(h_data, h, where=data)
            np.copyto(signal, terms, where=data)
            np.copyto(interference, terms, where=~data)
            sums[:, start:start + len(block)] = _row_sums(rows.T).reshape(4, -1)
        h_data, received, signal, interference = sums
        noise = total_noise_variance(received, scenario.detector, scenario.noise)
    _check_budget(received, signal, interference, noise)
    snrs, bers = _snr_and_ber(signal, interference, noise)
    return LinkColumns(*(array("d", column.tobytes())
                         for column in (h_data, received, signal, interference, noise, snrs, bers)))


def _luminaire_gains(scenario: "Scenario", points: np.ndarray, work: np.ndarray) -> np.ndarray:
    # channel_gain of every lamp at every checked position, the receiver facing
    # scenario.receiver_axis: an (n, lamps) view of the first of the seven
    # (lamps, n) arrays ``work`` holds, where entry [j, i] pairs lamp j with
    # position i.
    lamps = scenario.luminaire_arrays
    arrays = work.reshape(7, len(lamps.tags), len(points))
    e, (d, cos_theta, cos_psi, tmp) = arrays[:3], arrays[3:]  # e: the lamp-to-position x, y, z
    np.subtract(points.T[:, None, :], lamps.tx.T[:, :, None], out=e)
    np.sqrt(_dot(e, e, d, tmp), out=d)
    if not d.all():
        raise GeometryError("emitter and receiver positions coincide")
    rx = scenario.receiver_axis
    np.divide(_dot(lamps.tx_axis.T[:, :, None], e, cos_theta, tmp), d, out=cos_theta)
    np.divide(np.negative(_dot((rx.x, rx.y, rx.z), e, cos_psi, tmp), out=cos_psi), d, out=cos_psi)
    return _gains(scenario, d, cos_theta, cos_psi, _float_pow, e[0]).T


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
    lamp, or one whose budget overflows, lies in a kept segment. A tag that
    no lamp carries raises TagNotFoundError. Segments are bounded in blocks
    of about _BLOCK_PAIRS (segment, lamp) pairs, each on its own, so memory
    does not grow with the batch.
    """
    code, = scenario.tag_codes((tag_id,))
    # A position reads when 0.5 exp(-snr / 2) <= threshold, i.e. snr >=
    # -2 ln(2 threshold). Below this target, with the margin, the error rate
    # exceeds threshold * (1 + margin): rounding in exp and log cannot pass.
    target = -2.0 * math.log(2.0 * threshold * (1.0 + _BOUND_MARGIN))
    step = max(1, _BLOCK_PAIRS // len(scenario.luminaires))
    # A bound may overflow or be 0 / 0: one not finite, or a nan SNR bound, keeps its segment.
    with np.errstate(all="ignore"):
        return np.concatenate([_block_may_pass(scenario, code, start[first:first + step], end[first:first + step],
                                               target) for first in range(0, len(start) or 1, step)])


def _block_may_pass(scenario: "Scenario", code: int, start: np.ndarray, end: np.ndarray,
                    target: float) -> np.ndarray:
    # segments_may_pass for the data tag of code ``code`` and the SNR target.
    lamps = scenario.luminaire_arrays
    rx = scenario.receiver_axis
    up, down = 1.0 + _BOUND_MARGIN, 1.0 - _BOUND_MARGIN
    # Entry [j, k] of each array pairs lamp j with segment k; e0, e1 and u
    # hold x, y and z first: the ends less the lamp, and the segment.
    e0, e1 = (np.subtract(ends.T[:, None, :], lamps.tx.T[:, :, None], order="C") for ends in (start, end))
    u = np.subtract(end.T, start.T, order="C")[:, None, :]
    # Lengths widen by the margin times the magnitudes they are computed
    # from, which bounds their rounding.
    slack = _BOUND_MARGIN * ((np.abs(start).sum(axis=1) + np.abs(end).sum(axis=1))
                             + np.abs(lamps.tx).sum(axis=1)[:, None])
    # fmax takes a zero-length segment's 0 / 0 to its start.
    t = np.fmin(np.fmax(-_dot(e0, u) / _dot(u, u), 0.0), 1.0)
    d_lo = np.maximum(_norm(e0 + t * u) - slack, 0.0)
    d_hi = np.maximum(_norm(e0), _norm(e1)) + slack

    def cosines(axis):
        # Upper then lower bounds of axis . e / d. A negative bound only
        # has to stay negative: the pair is then unlit, or not surely lit.
        dot0, dot1 = _dot(axis, e0), _dot(axis, e1)
        hi = np.minimum((np.maximum(dot0, dot1) + slack) / d_lo, _norm(axis) * up)
        return np.concatenate((hi, (np.minimum(dot0, dot1) - slack) / d_hi), axis=1)

    # Each segment twice: bounds from above (the closest approach and
    # the upper cosines, lit if it might be), then from below (the
    # farthest distance and the lower cosines, lit only if lit throughout).
    n = len(start)
    h = _gains(scenario, np.concatenate((d_lo, d_hi), axis=1), cosines(lamps.tx_axis.T[:, :, None]),
               cosines(np.array([-rx.x, -rx.y, -rx.z])[:, None, None]), np.power)
    margin = np.repeat((up, down), n)
    # [segment, lamp] rows in C order, so each sum over lamps runs along memory.
    incident, terms = _signal_terms(scenario, np.multiply(h.T, margin[:, None], order="C"))
    data = lamps.codes == code
    signal_hi = terms[:n, data].sum(axis=1) * up
    interference = terms[:, ~data].sum(axis=1) * margin
    power = incident.sum(axis=1) * margin
    noise = total_noise_variance(power, scenario.detector, scenario.noise) * margin
    # A dark data tag bounds the SNR by 0, as in _snr_and_ber, not by 0 / 0 =
    # nan (no noise, no interference). From a threshold of 0.5 / (1 + margin)
    # up the target is not positive, so the segment is kept, as from 0.5 up it must be.
    snr_hi = np.where(signal_hi == 0.0, 0.0, signal_hi / (noise[n:] + interference[n:]))
    finite = np.isfinite((signal_hi, interference[:n], power[:n], noise[:n])).all(axis=0)
    return ~(finite & (snr_hi < target))


def _gains(scenario: "Scenario", d, cos_theta, cos_psi, power, out=None) -> np.ndarray:
    # channel_gain for each (lamp, position) pair from its distance and
    # cosines, with power(base, m) for cos(theta)^m on the lit pairs, into
    # ``out`` or new memory. The lit test negates channel_gain's zero test:
    # nan is lit. A lamp's lit pairs are one run, in lamp order, so each order
    # repeats by its lamp's lit count.
    det = scenario.detector
    lit = ~((cos_psi < det.cos_fov) | (cos_theta <= 0.0))
    m = np.repeat(scenario.luminaire_arrays.order, lit.sum(axis=1))
    dist = d[lit]
    h = np.empty(lit.shape) if out is None else out
    gains = ((m + 1.0) * det.area_m2 * power(cos_theta[lit], m) * cos_psi[lit] * det.gain
             / (2.0 * math.pi * dist * dist))
    h.fill(0.0)
    h[lit] = gains
    return h


def _float_pow(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    # channel.cos_power of each pair, the C library's pow on Python floats:
    # numpy's power may differ from it in the last bit (see the module
    # docstring). math.pow maps the block, at half cos_power's cost a value;
    # only a block where it overflows takes cos_power, for its inf.
    bases, exponents = base.tolist(), exponent.tolist()
    try:
        return np.fromiter(map(math.pow, bases, exponents), float, len(bases))
    except OverflowError:
        return np.fromiter(map(cos_power, bases, exponents), float, len(bases))


def _signal_terms(scenario: "Scenario", h, incident=None, terms=None) -> tuple[np.ndarray, np.ndarray]:
    # Incident power h P and mean-square signal (R h P mu)^2 E of each pair,
    # into the given arrays or new ones. A huge power_w or an infinite gain
    # overflows them, for _check_budget.
    lamps = scenario.luminaire_arrays
    incident = np.multiply(h, lamps.power, out=incident)
    terms = np.multiply(scenario.detector.responsivity_a_per_w, h, out=terms)
    for factor in (lamps.power, lamps.mod_index, terms, lamps.baseband):  # (R h P mu)^2 E
        terms *= factor
    return incident, terms


def _check_budget(received_power, signal_ms, interference_ms, noise_variance) -> None:
    # The one finiteness rule of a link budget, for one point (floats) or
    # many (whole columns at once), read in one pass unless it fails. SNR
    # may still be inf: a signal with neither noise nor interference.
    budget = (received_power, signal_ms, interference_ms, noise_variance)
    if np.isfinite(budget).all():
        return
    for name, value in zip(("received power", "signal", "interference", "noise"), budget):
        if not np.isfinite(value).all():
            raise ParameterError(f"link budget overflows: {name} is not finite "
                                 f"(power_w, detector values or Lambertian order too large)")


def _row_sums(terms: np.ndarray) -> np.ndarray:
    # _fsum_or_inf of each row of non-negative terms. A row with at most two
    # nonzero terms sums exactly in numpy: adding +0.0 is exact and one
    # addition rounds once, to the float fsum gives (inf where it overflows).
    # The other rows, n terms below 2**e, by error-free extraction (Rump, Ogita
    # and Oishi 2008): with sigma = 2**(e + k), 2**k >= n + 2, the parts q =
    # (sigma + t) - sigma sum exactly, t - q is exact and sums to within
    # 2 n**2 2**-106 sigma, and TwoSum gives tau + rho = f + err exactly. f is
    # fsum's sum where |err| plus that bound is under half the gap below f;
    # the guards keep every step normal and finite. Other rows take fsum, and
    # so do all of a block's many-term rows while they hold at most
    # _FSUM_TERMS terms, where fsum costs less than the extraction.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = terms.sum(axis=1)
        many = (terms != 0.0).sum(axis=1) > 2
        if not many.any():
            return sums
        t = terms.T.compress(many, axis=1).T  # keeps a lamps-major block lamps-major
        if t.size <= _FSUM_TERMS:
            sums[many] = list(map(_fsum_or_inf, t.tolist()))
            return sums
        n = t.shape[1]
        k = (n + 1).bit_length()
        top = t.max(axis=1)
        sure = (top >= 2.0 ** -800) & (top <= 2.0 ** (1000 - k))
        sigma = np.ldexp(1.0, np.frexp(top)[1] + k)[:, None]  # under- or overflows only outside the guards
        q = sigma + t
        q -= sigma
        tau = q.sum(axis=1)
        rho = np.subtract(t, q, out=q).sum(axis=1)
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


def _dot(a, b, out=None, scratch=None) -> np.ndarray:
    # (a[0] b[0] + a[1] b[1]) + a[2] b[2], Vec3.dot's order, of component-first
    # arrays, into ``out`` or new memory; ``scratch`` may take the products.
    out = np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=scratch)
    out += np.multiply(a[2], b[2], out=scratch)
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(v, v))


def _as_points(positions) -> np.ndarray:
    points = np.asarray(positions, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ParameterError(f"positions must have shape (n, 3), got {points.shape}")
    if not np.isfinite(points).all():
        raise ParameterError("position components must be finite")
    return points
