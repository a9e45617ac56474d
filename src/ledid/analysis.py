"""Placement planning: cone overlap, tag resolvability, read range.

Three questions a deployment planner asks of a scenario:

* at what plane distance do neighboring light cones fully overlap
  (geometric radius equals center spacing),
* which tags can still be read directly beneath their luminaires on a
  given plane (error rate at most a threshold, 1e-2 by default),
* how far away, and how far off axis, can a single tag be read reliably.

Resolvability is one ``evaluate_points`` call over the feet of all the
luminaires, each foot with its own lamp's tag.

Coverage searches walk the boresight ray of the tag's (first) luminaire.
Any other lamp can make the error rate non-monotone along the ray: an
interferer, or a second lamp of the same tag whose beam crosses the ray
further down and lights it up again. So every layout, a lone lamp
included, answers from one search: a ladder of 1 cm steps out to 100 m,
whose last passing step is refined by bisection; when the last step still
passes, bracketing doubles out from 100 m (first probe 200 m) before the
bisection. The ladder is bounded
run by run (interval branch and bound): ``link.segments_may_pass`` rules
out each run whose SNR bound stays below the threshold's, any other run is
split in eight, and the steps of the runs left go through
``evaluate_points`` in one batch, step 1 always among them, so only the
steps that might pass are evaluated, each once, and the answer equals the
full ladder's; a failing step 1 gives 0. Each bisection call to
``evaluate_points`` takes the midpoints of the next three halvings; the
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
from .link import _BLOCK_PAIRS, evaluate_points, segments_may_pass
from .scenario import Scenario

_BRACKET_CAP_M = 1.0e6
_SCAN_STEP_M = 0.01
_SCAN_CAP_M = 100.0
_SCAN_STEPS = int(round(_SCAN_CAP_M / _SCAN_STEP_M))
_DISTANCE_TOL_M = 1.0e-3
# The ladder search splits a run into _SPLIT runs, down to _LEAF_STEPS steps.
_SPLIT = 8
_LEAF_STEPS = 32
_ANGLE_TOL_DEG = 0.1
# Halvings whose midpoints _bisect evaluates in one batch.
_BISECT_LEVELS = 3

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
    n = len(scenario.luminaires)
    if n < 2:
        return UNBOUNDED
    p = scenario.luminaire_arrays.tx
    # Vec3.norm of each difference, (dx*dx + dy*dy) + dz*dz under one sqrt,
    # so the minimum is bit-identical to a loop over the pairs.
    spacing = math.inf
    step = max(1, _BLOCK_PAIRS // n)
    for start in range(0, n - 1, step):
        rows = p[start:start + step, None, :]
        delta = rows - p
        d = np.sqrt(delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1]
                    + delta[..., 2] * delta[..., 2])
        later = np.arange(n) > np.arange(start, start + len(rows))[:, None]
        spacing = min(spacing, float(d[later].min()))
    if spacing == 0.0:
        return 0.0
    widest = max(lum.emitter.semi_angle_deg for lum in scenario.luminaires)
    return critical_overlap_distance(spacing, widest)


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

    def probes(distances, angles_deg=(0.0,)) -> np.ndarray:
        # Each position is origin + direction.scaled(distance), component
        # by component, as Vec3 arithmetic computes it; one angle serves
        # every distance, or one distance every angle.
        directions = [axis.scaled(math.cos(a)) + side.scaled(math.sin(a))
                      for a in map(math.radians, angles_deg)]
        steps = np.asarray(distances, dtype=float)[:, None]
        return (origin.x, origin.y, origin.z) + steps * np.array([(d.x, d.y, d.z) for d in directions])

    def passes(points: np.ndarray) -> np.ndarray:
        try:
            return np.asarray(evaluate_points(scenario, points, tag_id).ber) <= threshold
        except GeometryError:
            # A probe on a luminaire fails; halving the batch finds it.
            if len(points) == 1:
                return np.zeros(1, dtype=bool)
            half = len(points) // 2
            return np.concatenate((passes(points[:half]), passes(points[half:])))

    def distances_pass(distances) -> np.ndarray:
        return passes(probes(distances))

    # Interference can make the error rate dip and rise along the ray, so
    # refine the ladder's last passing step. Past the ladder's end every
    # lamp is far off, and bracketing goes on from it.
    steps = _ladder_candidates(scenario, tag_id, probes, threshold)
    try:
        passing = distances_pass(steps * _SCAN_STEP_M)
    except ParameterError:
        # A failing step 1 answers 0 even where a later step's budget
        # overflows; step 1 alone raises its own overflow, as the batch would.
        if not distances_pass([_SCAN_STEP_M])[0]:
            return CoverageReport(tag_id, 0.0, 0.0, threshold)
        raise
    if not passing[0]:  # step 1
        return CoverageReport(tag_id, 0.0, 0.0, threshold)
    last = int(steps[passing][-1])
    if last == _SCAN_STEPS:
        distance = _bracket_and_bisect(distances_pass)
    else:
        distance = _bisect(distances_pass, last * _SCAN_STEP_M, (last + 1) * _SCAN_STEP_M, _DISTANCE_TOL_M)
    if math.isinf(distance):
        return CoverageReport(tag_id, UNBOUNDED, 90.0, threshold)

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

    Runs of steps start as the whole ladder. Each level of splitting is one
    batch through ``segments_may_pass``, and a run it cannot rule out is
    split into ``_SPLIT`` runs until it has at most ``_LEAF_STEPS`` steps.
    ``probes`` maps distances to the positions the ladder evaluates.
    """
    kept = [np.array([1])]
    runs = np.array([[1, _SCAN_STEPS]])
    while len(runs):
        ends = probes(runs.ravel() * _SCAN_STEP_M).reshape(-1, 2, 3)
        runs = runs[segments_may_pass(scenario, tag_id, ends[:, 0], ends[:, 1], threshold)]
        leaf = runs[:, 1] - runs[:, 0] < _LEAF_STEPS
        kept.extend(np.arange(first, last + 1) for first, last in runs[leaf])
        first, last = runs[~leaf].T
        cuts = first[:, None] + (last - first + 1)[:, None] * np.arange(_SPLIT + 1) // _SPLIT
        runs = np.column_stack((cuts[:, :-1].ravel(), cuts[:, 1:].ravel() - 1))
    return np.unique(np.concatenate(kept))


def _bracket_and_bisect(passes) -> float:
    # Monotone case: the ladder's end passes; double out from it to the first failure,
    # then bisect to 1 mm. passes maps a list of distances to whether each passes.
    lo, hi = _SCAN_CAP_M, 2.0 * _SCAN_CAP_M
    while passes([hi])[0]:
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CAP_M:
            return UNBOUNDED
    return _bisect(passes, lo, hi, _DISTANCE_TOL_M)


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
