"""Placement planning: cone overlap, tag resolvability, read range.

Three questions a deployment planner asks of a scenario:

* at what plane distance do neighboring light cones fully overlap
  (geometric radius equals center spacing),
* which tags can still be read directly beneath their luminaires on a
  given plane (error rate at most a threshold, 1e-2 by default),
* how far away, and how far off axis, can a single tag be read reliably.

Coverage searches walk the boresight ray of the tag's (first) luminaire.
For a lone tag with fixed noise the error rate is monotone in distance, so
exponential bracketing plus bisection is sound; scenarios with interferers
fall back to a linear scan at 1 cm steps because interference geometry can
make the error rate non-monotone along the ray. The scan's whole ladder is
one batch through ``evaluate_points``; the bisection steps are single
points through the same call. The off-axis angle is swept at half the
maximum reliable distance with the receiver keeping the scenario's
receiver orientation; both the measurement fraction and the threshold are
explicit parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .geometry import Vec3
from .link import evaluate_points
from .scenario import Scenario

_BRACKET_START_M = 0.01
_BRACKET_CAP_M = 1.0e6
_SCAN_STEP_M = 0.01
_SCAN_CAP_M = 100.0
_SCAN_STEPS = int(round(_SCAN_CAP_M / _SCAN_STEP_M))
_DISTANCE_TOL_M = 1.0e-3
_ANGLE_TOL_DEG = 0.1
# scenario_critical_distance compares about this many luminaire pairs at a time.
_BLOCK_PAIRS = 8192

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
    if not 0.0 < semi_angle_deg < 90.0:
        raise ParameterError(f"semi-angle must be in (0, 90) degrees, got {semi_angle_deg}")
    return spacing_m / math.tan(math.radians(semi_angle_deg))


def resolvability(scenario: Scenario, plane_distance_m: float, threshold: float = 1e-2) -> ResolvabilityReport:
    """Evaluate each tag at the foot of its luminaire(s) on the given plane.

    A tag with several luminaires is scored by the best (lowest) of its
    per-lamp error rates.
    """
    if not 0.0 < plane_distance_m <= scenario.room.height_m:
        raise ParameterError(
            f"plane distance must be in (0, {scenario.room.height_m}] m, got {plane_distance_m}")
    if not 0.0 < threshold:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    entries = []
    for tag in scenario.tags():
        best = min(foot_bers(scenario, plane_distance_m, tag))
        entries.append(TagResolvability(tag_id=tag, min_ber_under_lamp=best,
                                        resolvable=best <= threshold))
    return ResolvabilityReport(
        plane_distance_m=plane_distance_m,
        threshold_ber=threshold,
        tags=tuple(entries),
        critical_overlap_distance_m=scenario_critical_distance(scenario),
    )


def foot_bers(scenario: Scenario, plane_distance_m: float, tag_id: str) -> list[float]:
    """Error rate of ``tag_id`` at the foot of each of its lamps on a plane.

    The plane lies ``plane_distance_m`` below the ceiling; the list follows
    the tag's luminaires in scenario order.
    """
    z = scenario.room.height_m - plane_distance_m
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
    p = np.array([[lum.pose.position.x, lum.pose.position.y, lum.pose.position.z]
                  for lum in scenario.luminaires])
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


def coverage(scenario: Scenario, tag_id: str, threshold: float = 1e-2,
             angle_distance_fraction: float = 0.5) -> CoverageReport:
    """Maximum reliable on-axis distance and off-axis angle for one tag.

    With no interferers and all noise parameters zero the distance is
    unbounded (reported as inf, with the full 90 degree angle). If no
    crossing is found below the search cap the unbounded sentinel is
    returned as well.
    """
    if not 0.0 < threshold:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    if not 0.0 < angle_distance_fraction <= 1.0:
        raise ParameterError(
            f"angle distance fraction must be in (0, 1], got {angle_distance_fraction}")
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

    def bers_at(distances: list[float], angle_deg: float = 0.0) -> Sequence[float]:
        # Each position is origin + direction.scaled(distance), component
        # by component, as Vec3 arithmetic computes it.
        a = math.radians(angle_deg)
        direction = axis.scaled(math.cos(a)) + side.scaled(math.sin(a))
        steps = np.array(distances)[:, None]
        positions = (origin.x, origin.y, origin.z) + steps * (direction.x, direction.y, direction.z)
        return evaluate_points(scenario, positions, tag_id).ber

    def ok(distance: float) -> bool:
        return bers_at([distance])[0] <= threshold

    if not ok(_BRACKET_START_M):
        return CoverageReport(tag_id, 0.0, 0.0, threshold)
    if has_interferers:
        ladder = [k * _SCAN_STEP_M for k in range(1, _SCAN_STEPS + 1)]
        distance = _scan_last_crossing(ok, [ber <= threshold for ber in bers_at(ladder)])
    else:
        distance = _bracket_and_bisect(ok)
    if math.isinf(distance):
        return CoverageReport(tag_id, UNBOUNDED, 90.0, threshold)

    radius = angle_distance_fraction * distance

    def angle_ok(angle_deg: float) -> bool:
        return bers_at([radius], angle_deg)[0] <= threshold

    if angle_ok(90.0):
        angle = 90.0
    elif not angle_ok(0.0):
        angle = 0.0
    else:
        lo, hi = 0.0, 90.0
        while hi - lo > _ANGLE_TOL_DEG:
            mid = 0.5 * (lo + hi)
            if angle_ok(mid):
                lo = mid
            else:
                hi = mid
        angle = lo
    return CoverageReport(tag_id, distance, angle, threshold)


def _bracket_and_bisect(ok) -> float:
    # Monotone case: double out to the first failure, then bisect to 1 mm.
    lo = _BRACKET_START_M
    hi = lo
    while ok(hi):
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CAP_M:
            return UNBOUNDED
    while hi - lo > _DISTANCE_TOL_M:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scan_last_crossing(ok, passes: list[bool]) -> float:
    # Interference can make the error rate dip and rise along the ray, so
    # find the last passing step of the whole ladder (``passes[k - 1]`` is
    # step k), then refine locally.
    last_pass = max((k for k, passed in enumerate(passes, 1) if passed), default=None)
    if last_pass is None:
        return _BRACKET_START_M
    if last_pass == _SCAN_STEPS:
        return UNBOUNDED
    lo = last_pass * _SCAN_STEP_M
    hi = (last_pass + 1) * _SCAN_STEP_M
    while hi - lo > _DISTANCE_TOL_M:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _perpendicular(axis: Vec3) -> Vec3:
    reference = Vec3(1.0, 0.0, 0.0) if abs(axis.x) < 0.9 else Vec3(0.0, 1.0, 0.0)
    return (reference - axis.scaled(reference.dot(axis))).normalized()
