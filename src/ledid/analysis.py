"""Placement planning: cone overlap, tag resolvability, read range.

Three questions a deployment planner asks of a scenario:

* at what plane distance do neighboring light cones fully overlap
  (geometric radius equals center spacing),
* which tags can still be read directly beneath their luminaires on a
  given plane (error rate at most a threshold, 1e-2 by default),
* how far away, and how far off axis, can a single tag be read reliably.

Resolvability is one ``evaluate_points`` call over the feet of all the
luminaires, each foot with its own lamp's tag. Its cone-overlap distance
comes from the least lamp spacing, found without visiting every pair: the
least spacing of lamps next to each other in x, then y, order bounds it,
lamps go into square cells whose side is the least power of two not below
that bound, and only pairs in the same or neighbouring cells are measured,
one candidate of every lamp a round, each with the ``_norm`` every spacing
takes, so the minimum is the all-pairs one bit for bit (``_min_spacing``).

Coverage searches walk the boresight ray of the tag's (first) luminaire.
Any other lamp can make the error rate non-monotone along the ray: an
interferer, or a second lamp of the same tag whose beam crosses the ray
further down and lights it up again. So every layout, a lone lamp
included, answers from one search: a ladder of 1 cm steps out to 100 m,
whose last passing step is refined by bisection; when the last step still
passes, the bisection's bracket doubles out from 100 m (first probe 200 m)
instead, and a ray that passes until it would probe past 1,000 km reads
unbounded. The ladder is bounded run by run (interval branch and bound),
from the 64 runs that two splits in eight give: ``link.segments_may_pass``
rules out each run whose SNR bound stays below the threshold's, any other
run is split in eight and bounded again, and the steps of the runs left go
through ``evaluate_points`` in one batch, step 1 always among them, so only the
steps that might pass are evaluated, each once, and the answer equals the
full ladder's; a failing step 1 gives 0. Each bisection call to
``evaluate_points`` takes the midpoints of the next five halvings; the
link model, the bound included, lives in ``link`` alone, and this module
only searches. A probe that lands on a luminaire has no link budget and
counts as failing. The off-axis angle is swept at half the maximum
reliable distance with the receiver keeping the scenario's receiver
orientation; the threshold is an explicit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import lambertian_order
from .errors import GeometryError, ParameterError
from .geometry import Vec3
from .link import _norm, evaluate_points, segments_may_pass
from .scenario import Scenario

_BRACKET_CAP_M = 1.0e6
_SCAN_STEP_M = 0.01
_SCAN_CAP_M = 100.0
_SCAN_STEPS = int(round(_SCAN_CAP_M / _SCAN_STEP_M))
_DISTANCE_TOL_M = 1.0e-3
_SPLIT = 8
_ANGLE_TOL_DEG = 0.1
# Halvings whose midpoints _bisect evaluates in one batch. A kernel call costs
# about 105 us and 0.7 (L1) to 1.5 (G1) us more a point, so five read the
# 1 mm distance in one call of 15 points and the 0.1 degree angle in two of
# 31; three took 2 and 4 calls, four take 1 and 3, six read the angle in 63
# and 15 points. Five planning coverage queries took 10.6, 9.3, 8.4 and 8.7
# ms at 3 to 6 levels (minima of 80 interleaved runs, 2-vCPU Xeon, numpy 2.4).
_BISECT_LEVELS = 5

UNBOUNDED = math.inf


@dataclass(frozen=True)
class CoverageReport:
    """Maximum reliable read distance and off-axis angle for one tag."""

    tag_id: str
    max_reliable_distance_m: float
    max_reliable_angle_deg: float
    threshold_ber: float


@dataclass(frozen=True)
class TagResolvability:
    """Readability of one tag directly beneath its luminaire(s)."""

    tag_id: str
    min_ber_under_lamp: float
    resolvable: bool


@dataclass(frozen=True)
class ResolvabilityReport:
    """Per-tag readability on one plane plus the cone-overlap distance."""

    plane_distance_m: float
    threshold_ber: float
    tags: tuple[TagResolvability, ...]
    critical_overlap_distance_m: float


def critical_overlap_distance(spacing_m: float, semi_angle_deg: float) -> float:
    """Plane distance where a light cone's radius equals the lamp spacing.

    A cone limited by the radiation semi-angle t has radius d * tan(t) at
    plane distance d, so full overlap starts at spacing / tan(t).
    """
    if not spacing_m > 0.0:
        raise ParameterError(f"spacing must be positive, got {spacing_m}")
    lambertian_order(semi_angle_deg)  # the one semi-angle rule: ParameterError outside (0, 90)
    return spacing_m / math.tan(math.radians(semi_angle_deg))


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold:
        raise ParameterError(f"threshold must be positive, got {threshold}")


def resolvability(scenario: Scenario, plane_distance_m: float, threshold: float = 1e-2) -> ResolvabilityReport:
    """Evaluate each tag at the foot of its luminaire(s) on the given plane.

    A tag with several luminaires is scored by the best (lowest) of its
    per-lamp error rates.
    """
    _check_threshold(threshold)
    z = scenario.room.plane_z(plane_distance_m)
    lamps = scenario.luminaire_arrays
    feet = np.column_stack((lamps.tx[:, 0], lamps.tx[:, 1], np.full(len(lamps.tx), z)))
    best: dict[str, float] = {}  # in first-appearance order, as scenario.tags()
    for tag, ber in zip(lamps.tags.tolist(), evaluate_points(scenario, feet, lamps.tags).ber):
        best[tag] = min(best.get(tag, ber), ber)
    return ResolvabilityReport(
        plane_distance_m=plane_distance_m,
        threshold_ber=threshold,
        tags=tuple(TagResolvability(tag_id=tag, min_ber_under_lamp=ber, resolvable=ber <= threshold)
                   for tag, ber in best.items()),
        critical_overlap_distance_m=scenario_critical_distance(scenario),
    )


def foot_bers(scenario: Scenario, plane_distance_m: float, tag_id: str) -> list[float]:
    """Error rate of ``tag_id`` at the foot of each of its lamps on a plane.

    The plane lies ``plane_distance_m`` below the ceiling, inside the room;
    the list follows the tag's luminaires in scenario order.
    """
    z = scenario.room.plane_z(plane_distance_m)
    feet = [(lum.pose.position.x, lum.pose.position.y, z) for lum in scenario.luminaires_for(tag_id)]
    return list(evaluate_points(scenario, feet, tag_id).ber)


def scenario_critical_distance(scenario: Scenario) -> float:
    """Cone-overlap distance from the tightest luminaire pair.

    Uses the minimum center spacing and the widest semi-angle, i.e. the
    earliest full overlap anywhere in the layout. Infinite for a single
    luminaire; zero when two luminaires coincide.
    """
    if len(scenario.luminaires) < 2:
        return UNBOUNDED
    with np.errstate(over="ignore"):  # a spacing past the largest float reads inf
        spacing = _min_spacing(scenario.luminaire_arrays.tx.T)
    if spacing == 0.0:
        return 0.0
    widest = max(lum.emitter.semi_angle_deg for lum in scenario.luminaires)
    return critical_overlap_distance(spacing, widest)


def _min_spacing(p: np.ndarray) -> float:
    """The least ``_norm`` of the difference of two of the n >= 2 columns of ``p`` (x, y, z rows).

    Bit-identical to the minimum over every pair, as each spacing is
    ``_norm`` of one pair's difference, but only pairs in neighbouring
    cells are visited. Sorted by x, then y, the least spacing of
    consecutive points is one pair's, and the search starts from it.
    Cells in x and y have the least power-of-two side not below the bound,
    so ``floor(x / side)`` numbers them exactly. Two points whose cells
    differ by two or more along an axis lie more than ``side`` apart there,
    so their difference there rounds to at least ``side``, and a spacing is
    at least its rounded component while the bound squares without
    underflow: such a pair is never below the bound. So a point's
    candidates are the later points of its column of cells up to the next
    row and the points of the next column in the rows next to its own,
    with columns and rows numbered in order of the cells that hold points
    (neighbouring cells stay neighbours). A bound below 1e-100, or an
    infinite one, puts every point in one cell, where every pair is a
    candidate. Round k measures the k-th candidate of every point at once.
    """
    n = p.shape[1]
    p = p[:, np.lexsort((p[1], p[0]))]
    bound = float(_norm(p[:, 1:] - p[:, :-1]).min())
    if bound == 0.0:
        return 0.0
    mantissa, exponent = math.frexp(bound)
    side = math.ldexp(1.0, exponent - (mantissa == 0.5)) if 1e-100 <= bound < math.inf else math.inf
    column, row = (np.unique(np.floor(c / side), return_inverse=True)[1] for c in p[:2])
    cell = column * (n + 2) + row + 1  # the next column's rows next to a point's: cell + n + 1 to + n + 3
    order = np.argsort(cell, kind="stable")
    cell, p = cell[order], p[:, order]
    owner = np.tile(np.arange(n), 2)
    start = np.concatenate((owner[:n] + 1, np.searchsorted(cell, cell + n + 1)))
    stop = np.concatenate((np.searchsorted(cell, cell + 1, "right"),
                           np.searchsorted(cell, cell + n + 3, "right")))
    spacing = bound
    for k in range(int((stop - start).max())):
        near = start + k < stop
        spacing = min(spacing, float(_norm(p[:, owner[near]] - p[:, start[near] + k]).min()))
    return spacing


def coverage(scenario: Scenario, tag_id: str, threshold: float = 1e-2) -> CoverageReport:
    """Maximum reliable on-axis distance and off-axis angle for one tag.

    The angle is read at half the maximum reliable distance.

    The unbounded sentinel (inf, with the full 90 degree angle) is
    returned when no crossing is found below the search cap, and by
    convention with no interferers and all noise parameters zero, where
    only the signal's own shot noise limits the distance (to 52,017 m for
    an L1 lamp at 1e-2).
    """
    _check_threshold(threshold)
    lamps = scenario.luminaires_for(tag_id)
    has_interferers = len(lamps) != len(scenario.luminaires)
    noise = scenario.noise
    noiseless = (noise.background_current_a == 0.0 and noise.thermal_a2 == 0.0
                 and noise.isi_a2 == 0.0)
    if not has_interferers and noiseless:
        return CoverageReport(tag_id, UNBOUNDED, 90.0, threshold)

    origin = lamps[0].pose.position
    axis = lamps[0].pose.axis
    side = _perpendicular(axis)
    axis_xyz, side_xyz = np.array([axis.x, axis.y, axis.z]), np.array([side.x, side.y, side.z])

    def probes(distances, angles_deg=(0.0,)) -> np.ndarray:
        # Each position is origin + (axis.scaled(cos a) + side.scaled(sin a))
        # .scaled(distance), component by component, as Vec3 arithmetic
        # computes it; one angle serves every distance, or one distance
        # every angle.
        radians = list(map(math.radians, angles_deg))
        directions = (np.array(list(map(math.cos, radians)))[:, None] * axis_xyz
                      + np.array(list(map(math.sin, radians)))[:, None] * side_xyz)
        steps = np.asarray(distances, dtype=float)[:, None]
        return (origin.x, origin.y, origin.z) + steps * directions

    def passes(points: np.ndarray) -> np.ndarray:
        try:
            return np.asarray(evaluate_points(scenario, points, tag_id).ber) <= threshold
        except GeometryError:
            # A probe on a luminaire fails; halving the distinct probes finds it (steps may repeat one).
            unique, inverse = np.unique(points, axis=0, return_inverse=True)
            if len(unique) == 1:
                return np.zeros(len(points), dtype=bool)
            half = len(unique) // 2
            return np.concatenate((passes(unique[:half]), passes(unique[half:])))[inverse.reshape(-1)]

    def distances_pass(distances) -> np.ndarray:
        return passes(probes(distances))

    # Interference can make the error rate dip and rise along the ray, so
    # refine the ladder's last passing step. Past the ladder's end every
    # lamp is far off: double out from it to the first failure.
    steps = _ladder_candidates(scenario, tag_id, probes, threshold)
    try:
        passing = distances_pass(steps * _SCAN_STEP_M)
    except ParameterError:
        # A failing step 1 answers 0 even where a later step's budget
        # overflows; step 1 alone raises its own overflow, as the batch would.
        passing = distances_pass([_SCAN_STEP_M])
        if passing[0]:
            raise
    if not passing[0]:  # step 1
        return CoverageReport(tag_id, 0.0, 0.0, threshold)
    last = int(steps[passing][-1])
    lo, hi = last * _SCAN_STEP_M, (last + 1) * _SCAN_STEP_M
    if last == _SCAN_STEPS:
        hi = 2.0 * lo
        while distances_pass([hi])[0]:
            lo, hi = hi, 2.0 * hi
            if hi > _BRACKET_CAP_M:
                return CoverageReport(tag_id, UNBOUNDED, 90.0, threshold)
    distance = _bisect(distances_pass, lo, hi, _DISTANCE_TOL_M)

    radius = 0.5 * distance

    def angles_pass(angles_deg) -> np.ndarray:
        return passes(probes([radius], angles_deg))

    at_90, at_0 = angles_pass([90.0, 0.0])
    if at_90:
        angle = 90.0
    elif not at_0:
        angle = 0.0
    else:
        angle = _bisect(angles_pass, 0.0, 90.0, _ANGLE_TOL_DEG)
    return CoverageReport(tag_id, distance, angle, threshold)


def _ladder_candidates(scenario: Scenario, tag_id: str, probes, threshold: float) -> np.ndarray:
    """Ladder steps that might pass, in order: every passing step and step 1.

    Two batches through ``segments_may_pass`` rule runs out: the ladder
    split twice into ``_SPLIT`` runs, which saves the two coarser batches
    and drops no passing step, as each run is bounded on its own segment,
    then the ``_SPLIT`` parts of each run the first batch keeps. The steps
    of the runs left are kept. ``probes`` maps distances to the positions
    the ladder evaluates.
    """
    def may_pass(runs: np.ndarray) -> np.ndarray:
        ends = probes(runs.ravel() * _SCAN_STEP_M).reshape(-1, 2, 3)
        return runs[segments_may_pass(scenario, tag_id, ends[:, 0], ends[:, 1], threshold)]

    runs = may_pass(_split(_split(np.array([[1, _SCAN_STEPS]]))))  # 64 runs of 156 or 157 steps
    runs = may_pass(_split(runs))  # runs of 19 or 20 steps
    # The runs are disjoint and in order, so their steps are too.
    kept = [np.arange(first, last + 1) for first, last in runs]
    if not kept or kept[0][0] != 1:
        kept.insert(0, np.array([1]))
    return np.concatenate(kept)


def _split(runs: np.ndarray) -> np.ndarray:
    # Each run of steps [first, last] as _SPLIT runs, in order.
    first, last = runs.T
    cuts = first[:, None] + (last - first + 1)[:, None] * np.arange(_SPLIT + 1) // _SPLIT
    return np.column_stack((cuts[:, :-1].ravel(), cuts[:, 1:].ravel() - 1))


def _bisect(passes, lo: float, hi: float, tol: float) -> float:
    # With lo passing and hi failing, halve [lo, hi] until it is at most tol
    # wide; return the passing end. passes maps a list of points to whether
    # each passes. One call takes the midpoint of every interval wider than
    # tol that the next _BISECT_LEVELS halvings might reach, and the
    # halvings then read their results in order.
    while hi - lo > tol:
        mids, level = {}, [(lo, hi)]
        for _ in range(_BISECT_LEVELS):
            level = [(a, b) for a, b in level if b - a > tol]
            mids.update(((a, b), 0.5 * (a + b)) for a, b in level)
            level = [span for a, b in level for span in ((a, mids[a, b]), (mids[a, b], b))]
        passed = dict(zip(mids, passes(list(mids.values()))))
        while (lo, hi) in mids:
            if passed[lo, hi]:
                lo = mids[lo, hi]
            else:
                hi = mids[lo, hi]
    return lo


def _perpendicular(axis: Vec3) -> Vec3:
    reference = Vec3(1.0, 0.0, 0.0) if abs(axis.x) < 0.9 else Vec3(0.0, 1.0, 0.0)
    return (reference - axis.scaled(reference.dot(axis))).normalized()
