"""Acceptance suite.

Every criterion prints one PASS/FAIL line so a plain ``pytest -s
tests/test_acceptance.py`` doubles as the acceptance report. Tolerances
are pinned here, not configurable.
"""

import math

import pytest
from scipy.integrate import quad

from ledid import (
    DetectorModel,
    EmitterModel,
    Luminaire,
    NoiseParams,
    Pose,
    Room,
    Scenario,
    Vec3,
    agreement_report,
    builtin_g1,
    builtin_l1,
    builtin_scenario_path,
    coverage,
    critical_overlap_distance,
    evaluate_grid,
    evaluate_link,
    radiant_intensity,
    resolvability,
)
from ledid.cli import main

DOWN = Vec3(0.0, 0.0, -1.0)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    points = agreement_report((0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0),
                              trials=1_000_000, seed=42)
    hits = sum(p.within_3_sigma for p in points)
    report(1, "oracle equivalence", hits >= 6, f"within 3 sigma at {hits}/7 points")


def test_criterion_2_l1_order_reproduction():
    scenario = builtin_l1()
    bands = {0.30: (0.0, 1e-5), 0.40: (3e-3, 3e-2), 0.50: (0.03, 0.3)}
    values = {}
    ok = True
    for plane, (lo, hi) in bands.items():
        ber = evaluate_link(scenario, Vec3(-0.16, 0.0, 2.0 - plane), "outer-left").ber
        values[plane] = ber
        ok = ok and lo <= ber <= hi
    detail = " ".join(f"ber({int(p * 100)}cm)={values[p]:.3e}" for p in sorted(values))
    report(2, "L1 order reproduction", ok, detail)


def test_criterion_3_critical_overlap_and_flip():
    d_star = critical_overlap_distance(0.16, 20.0)
    ok = abs(d_star - 0.4396) <= 1e-4
    at_40 = {e.tag_id: e.resolvable for e in resolvability(builtin_l1(), 0.40, 1e-2).tags}
    at_50 = {e.tag_id: e.resolvable for e in resolvability(builtin_l1(), 0.50, 1e-2).tags}
    for tag in ("outer-left", "outer-right"):
        ok = ok and at_40[tag] and not at_50[tag]
    report(3, "critical overlap", ok,
           f"d*={d_star:.4f} m, outer resolvable 40cm={at_40['outer-left']} 50cm={at_50['outer-left']}")


def test_criterion_4_g1_resolvability():
    entries = resolvability(builtin_g1(), 0.30, threshold=1e-2).tags
    worst = max(entry.min_ber_under_lamp for entry in entries)
    ok = len(entries) == 9 and all(entry.resolvable for entry in entries)
    report(4, "G1 resolvability", ok, f"worst under-lamp ber={worst:.3e}")


def test_criterion_5_power_conservation():
    ok = True
    details = []
    for order in (1.0, 11.14, 50.0):
        emitter = EmitterModel.from_order(1.0, order)
        total, _ = quad(lambda t: radiant_intensity(t, emitter) * 2.0 * math.pi * math.sin(t),
                        0.0, math.pi / 2)
        rel = abs(total - 1.0)
        details.append(f"m={order:g}: rel_err={rel:.2e}")
        ok = ok and rel <= 1e-6
    report(5, "power conservation", ok, "; ".join(details))


def test_criterion_6_grid_determinism(tmp_path):
    args = ["grid", str(builtin_scenario_path("l1")), "--tag", "outer-left",
            "--plane-cm", "30", "--res", "64"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--out", str(paths[2]), "--workers", "4"]) == 0
    blobs = [path.read_bytes() for path in paths]
    rows = len(blobs[0].decode("ascii").splitlines()) - 1
    ok = blobs[0] == blobs[1] == blobs[2] and rows == 64 * 64
    report(6, "grid determinism", ok,
           f"{rows} data rows, {len(blobs[0])} bytes, identical across runs and workers")


def test_criterion_7_coverage_monotone_in_ambient_light():
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    detector = DetectorModel(area_m2=1e-4, fov_deg=60.0, gain=1.3, bandwidth_hz=1e4)

    def scenario(ibg):
        return Scenario(
            room=Room(2.0, 2.0, 2.0),
            luminaires=(Luminaire("solo", Pose(Vec3(0.0, 0.0, 2.0), DOWN), emitter),),
            detector=detector,
            noise=NoiseParams(background_current_a=ibg),
        )

    currents = (0.0, 10e-6, 100e-6, 1e-3)
    distances = [coverage(scenario(ibg), "solo", 1e-2).max_reliable_distance_m
                 for ibg in currents]
    ok = math.isinf(distances[0]) and all(a > b for a, b in zip(distances, distances[1:]))
    detail = ", ".join(
        f"I_bg={ibg:g}A: {'unbounded' if math.isinf(d) else f'{d:.3f}m'}"
        for ibg, d in zip(currents, distances))
    report(7, "coverage monotonicity", ok, detail)


def _max_relative_asymmetry(pairs):
    worst = 0.0
    for a, b in pairs:
        scale = max(abs(a), abs(b))
        if scale > 0.0:
            worst = max(worst, abs(a - b) / scale)
    return worst


def test_criterion_8_symmetry_suite():
    n = 16
    l1_grid = evaluate_grid(builtin_l1(), 0.3, n, "outer-left")
    l1_ber = l1_grid.columns.ber  # cell (ix, iy) is entry iy * n + ix
    mirror_pairs = [
        (l1_ber[iy * n + ix], l1_ber[(n - 1 - iy) * n + ix])
        for iy in range(n) for ix in range(n)
    ]
    l1_asym = _max_relative_asymmetry(mirror_pairs)

    g1_grid = evaluate_grid(builtin_g1(), 0.3, n, "center")
    g1_ber = g1_grid.columns.ber
    four_fold_pairs = []
    for iy in range(n):
        for ix in range(n):
            ber = g1_ber[iy * n + ix]
            four_fold_pairs.append((ber, g1_ber[iy * n + n - 1 - ix]))
            four_fold_pairs.append((ber, g1_ber[(n - 1 - iy) * n + ix]))
            four_fold_pairs.append((ber, g1_ber[(n - 1 - iy) * n + n - 1 - ix]))
    g1_asym = _max_relative_asymmetry(four_fold_pairs)

    ok = l1_asym <= 1e-12 and g1_asym <= 1e-12
    report(8, "symmetry suite", ok, f"L1 asym={l1_asym:.1e}, G1 asym={g1_asym:.1e}")
