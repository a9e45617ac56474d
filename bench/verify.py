"""Checks on the outputs of every benchmark op.

Grid values are compared with the scalar reference ``ledid.link.evaluate_link``
at seeded sample cells, and every row is checked for internal consistency
(SNR from its terms, BER from its SNR), so one corrupted value anywhere in
a file fails the op.

Tolerances. Every quantity in a link budget is a sum of nonnegative terms
followed by one division, so summing the same terms in another order (as
an array kernel may) changes it by at most n * 2.2e-16 relative, under
6e-14 for the 256-lamp documents, plus a few ulp from cos/pow/atan2.
``REL_TOL`` = 1e-9 leaves four orders of magnitude of headroom and still
catches any change to the model, which moves values by 1e-6 or more.
BER = exp(-snr/2)/2 turns a relative SNR error e into a relative BER
error of about e * snr/2, so BER gets ``REL_TOL * max(1, snr/2)``; below
``BER_FLOOR`` an underflowed BER is compared absolutely.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

from gen import MC_SNR_LIST
from ledid.geometry import Vec3
# Bound at import, before any tracing wrapper exists. It still looks up
# ledid.link.channel_gain at call time, so verify with tracing uninstalled.
from ledid.link import evaluate_link as reference_link

CSV_HEADER = "x_m,y_m,tag,h_data,signal_ms,interference_ms,noise_var,snr,ber"
REL_TOL = 1e-9
BER_FLOOR = 1e-300
COORD_TOL_M = 1e-12
SAMPLE_CELLS = 8
RESOLVE_SAMPLE_TAGS = 8
# The README's heatmap window: log10(BER) from [-8, -0.3] onto [0, 255].
LOG_BER_LO = -8.0
LOG_BER_HI = -0.3
# A pixel may differ by one level: a scaled log landing on a .5 boundary
# rounds either way under another equally exact log10.
PIXEL_TOL = 1
COVERAGE_DISTANCE_TOL_M = 1e-3
COVERAGE_ANGLE_TOL_DEG = 0.1

# Coverage answers of the seed code at threshold 1e-2, per shipped tag.
SEED_COVERAGE = {
    ("l1", "outer-left"): (0.40312500000000007, 17.314453125),
    ("l1", "inner"): (0.34500000000000003, 22.236328125),
    ("l1", "outer-right"): (0.40312500000000007, 59.94140625),
    ("g1", "nw"): (0.34187500000000004, 22.587890625),
    ("g1", "n"): (0.316875, 25.224609375),
    ("g1", "ne"): (0.34187500000000004, 59.94140625),
    ("g1", "w"): (0.316875, 25.224609375),
    ("g1", "center"): (0.30125, 27.158203125),
    ("g1", "e"): (0.316875, 59.94140625),
    ("g1", "sw"): (0.34187500000000004, 22.587890625),
    ("g1", "s"): (0.316875, 25.224609375),
    ("g1", "se"): (0.34187500000000004, 59.94140625),
}


class VerifyError(Exception):
    """An op's output is wrong."""


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def _ber_close(a: float, b: float, snr: float) -> bool:
    if max(a, b) < BER_FLOOR:
        return True
    scale = 1.0 if math.isinf(snr) else max(1.0, 0.5 * snr)
    return _close(a, b, REL_TOL * scale)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerifyError(message)


def check_exit(code: int, stderr: str) -> None:
    _require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
    _require(stderr == "", f"unexpected stderr: {stderr.strip()[:200]}")


def cell_centers(lo: float, hi: float, n: int) -> list[float]:
    mid = 0.5 * (lo + hi)
    span = hi - lo
    return [mid + ((2 * i + 1 - n) / (2 * n)) * span for i in range(n)]


def read_grid_csv(path: Path, tag: str, res: int) -> list[tuple[float, ...]]:
    """Parse an exported grid back; rows are (x, y, h, signal, interf, noise, snr, ber)."""
    lines = path.read_text(encoding="ascii").split("\n")
    _require(lines[-1] == "", f"{path.name}: missing final newline")
    _require(lines[0] == CSV_HEADER, f"{path.name}: bad header {lines[0]!r}")
    body = lines[1:-1]
    _require(len(body) == res * res, f"{path.name}: {len(body)} rows, expected {res * res}")
    rows = []
    for number, line in enumerate(body, start=2):
        fields = line.split(",")
        _require(len(fields) == 9, f"{path.name}:{number}: {len(fields)} fields")
        _require(fields[2] == tag, f"{path.name}:{number}: tag {fields[2]!r}")
        try:
            rows.append(tuple(float(f) for f in fields[:2] + fields[3:]))
        except ValueError as exc:
            raise VerifyError(f"{path.name}:{number}: {exc}") from exc
    return rows


def _check_row_consistency(row: tuple[float, ...], where: str) -> None:
    _, _, h, signal, interference, noise, snr, ber = row
    _require(min(h, signal, interference, noise, snr, ber) >= 0.0, f"{where}: negative value")
    if signal == 0.0:
        expected_snr = 0.0
    elif noise + interference == 0.0:
        expected_snr = math.inf
    else:
        expected_snr = signal / (noise + interference)
    _require(_close(snr, expected_snr), f"{where}: snr {snr!r} != {expected_snr!r}")
    expected_ber = 0.0 if math.isinf(snr) else 0.5 * math.exp(-0.5 * snr)
    _require(_ber_close(ber, expected_ber, snr), f"{where}: ber {ber!r} != {expected_ber!r}")


def check_grid(path: Path, scenario, tag: str, plane_cm: float, res: int,
               rng: random.Random) -> list[tuple[float, ...]]:
    """Header, row count, coordinates, per-row consistency, sampled reference cells."""
    rows = read_grid_csv(path, tag, res)
    room = scenario.room
    xs = cell_centers(-0.5 * room.width_m, 0.5 * room.width_m, res)
    ys = cell_centers(-0.5 * room.depth_m, 0.5 * room.depth_m, res)
    for k, row in enumerate(rows):
        where = f"{path.name}: cell {k}"
        iy, ix = divmod(k, res)
        _require(abs(row[0] - xs[ix]) <= COORD_TOL_M and abs(row[1] - ys[iy]) <= COORD_TOL_M,
                 f"{where}: coordinates ({row[0]}, {row[1]})")
        _check_row_consistency(row, where)
    z = room.height_m - plane_cm / 100.0
    samples = {0, res * res - 1} | {rng.randrange(res * res) for _ in range(SAMPLE_CELLS)}
    for k in sorted(samples):
        iy, ix = divmod(k, res)
        ref = reference_link(scenario, Vec3(xs[ix], ys[iy], z), tag)
        expected = (ref.data_gain(tag), ref.signal_ms_a2, ref.interference_ms_a2,
                    ref.noise_variance_a2, ref.snr)
        for name, got, want in zip(("h_data", "signal_ms", "interference_ms", "noise_var", "snr"),
                                   rows[k][2:7], expected):
            _require(_close(got, want), f"{path.name}: cell {k} {name} {got!r} != reference {want!r}")
        _require(_ber_close(rows[k][7], ref.ber, ref.snr),
                 f"{path.name}: cell {k} ber {rows[k][7]!r} != reference {ref.ber!r}")
    return rows


def check_mirror(rows: list[tuple[float, ...]], res: int, flip_x: bool, flip_y: bool) -> None:
    """Exact symmetry of a grid whose data lamp sits on the mirror axis."""
    for k, row in enumerate(rows):
        iy, ix = divmod(k, res)
        my = res - 1 - iy if flip_y else iy
        mx = res - 1 - ix if flip_x else ix
        other = rows[my * res + mx]
        _require(row[0] == (-other[0] if flip_x else other[0])
                 and row[1] == (-other[1] if flip_y else other[1])
                 and row[2:] == other[2:],
                 f"mirror symmetry broken at cell {k} (flip_x={flip_x}, flip_y={flip_y})")


def pixel(ber: float) -> int:
    if ber <= 0.0:
        return 0
    level = (math.log10(ber) - LOG_BER_LO) / (LOG_BER_HI - LOG_BER_LO) * 255.0
    return max(0, min(255, int(round(level))))


def check_pgm(path: Path, rows: list[tuple[float, ...]], res: int) -> None:
    tokens = path.read_text(encoding="ascii").split()
    _require(tokens[:4] == ["P2", str(res), str(res), "255"], f"{path.name}: bad header {tokens[:4]}")
    pixels = tokens[4:]
    _require(len(pixels) == res * res, f"{path.name}: {len(pixels)} pixels, expected {res * res}")
    for k, (text, row) in enumerate(zip(pixels, rows)):
        _require(abs(int(text) - pixel(row[7])) <= PIXEL_TOL,
                 f"{path.name}: pixel {k} is {text}, BER {row[7]!r} maps to {pixel(row[7])}")


def foot_bers(scenario, tag: str, plane_cm: float) -> list[float]:
    z = scenario.room.height_m - plane_cm / 100.0
    return [reference_link(scenario, Vec3(l.pose.position.x, l.pose.position.y, z), tag).ber
            for l in scenario.luminaires_for(tag)]


def _fields(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split() if "=" in item)


def check_sweep(stdout: str, out: Path, scenario, tag: str, planes_cm, res: int,
                rng: random.Random) -> None:
    lines = stdout.splitlines()
    _require(len(lines) == len(planes_cm), f"sweep printed {len(lines)} lines")
    for line, plane in zip(lines, planes_cm):
        fields = _fields(line)
        _require(fields.get("plane_cm") == f"{plane:g}", f"sweep line {line!r}")
        path = out / "sweep" / f"{tag}_plane{plane:g}cm.csv"
        _require(fields.get("csv") == str(path), f"sweep csv path {fields.get('csv')!r}")
        check_grid(path, scenario, tag, plane, res, rng)
        bers = sorted(foot_bers(scenario, tag, plane))
        n = len(bers)
        median = bers[n // 2] if n % 2 else 0.5 * (bers[n // 2 - 1] + bers[n // 2])
        _require(_close(float(fields["min_ber"]), bers[0]), f"sweep min_ber {fields['min_ber']}")
        _require(_close(float(fields["median_ber"]), median), f"sweep median_ber {fields['median_ber']}")


def _coverage_ber(scenario, tag: str, distance: float, angle_deg: float) -> float:
    # The search geometry documented by ledid.analysis.coverage for a
    # downward lamp: along the boresight, tilted towards +x.
    lamp = scenario.luminaires_for(tag)[0]
    a = math.radians(angle_deg)
    axis = lamp.pose.axis
    position = lamp.pose.position + (axis.scaled(math.cos(a)) + Vec3(1.0, 0.0, 0.0).scaled(math.sin(a))).scaled(distance)
    return reference_link(scenario, position, tag).ber


def check_coverage(stdout: str, doc: str, scenario, tag: str, threshold: float) -> None:
    fields = {}
    for line in stdout.splitlines():
        fields.update(_fields(line))
    _require(fields.get("tag") == tag, f"coverage tag {fields.get('tag')!r}")
    _require(float(fields.get("threshold_ber", "nan")) == threshold, "coverage threshold")
    try:
        distance = float(fields["max_reliable_distance_m"])
        angle = float(fields["max_reliable_angle_deg"])
    except (KeyError, ValueError) as exc:
        raise VerifyError(f"coverage output: {exc}") from exc
    if (doc, tag) in SEED_COVERAGE and threshold == 1e-2:
        want_d, want_a = SEED_COVERAGE[doc, tag]
        _require(abs(distance - want_d) <= COVERAGE_DISTANCE_TOL_M, f"coverage distance {distance} != {want_d}")
        _require(abs(angle - want_a) <= COVERAGE_ANGLE_TOL_DEG, f"coverage angle {angle} != {want_a}")
        return
    # A lone lamp: BER rises monotonically with distance and angle, so the
    # answers must pass and one search tolerance further must fail.
    _require(_coverage_ber(scenario, tag, distance, 0.0) <= threshold, "coverage distance fails")
    _require(_coverage_ber(scenario, tag, distance + COVERAGE_DISTANCE_TOL_M, 0.0) > threshold,
             "coverage distance not maximal")
    radius = 0.5 * distance
    _require(_coverage_ber(scenario, tag, radius, angle) <= threshold, "coverage angle fails")
    if angle < 90.0:
        _require(_coverage_ber(scenario, tag, radius, angle + COVERAGE_ANGLE_TOL_DEG) > threshold,
                 "coverage angle not maximal")


def critical_distance(scenario) -> float:
    """Cone-overlap distance from a numpy minimum pair spacing."""
    p = np.array([[l.pose.position.x, l.pose.position.y, l.pose.position.z] for l in scenario.luminaires])
    d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))
    spacing = float(d[np.triu_indices(len(p), k=1)].min())
    widest = max(l.emitter.semi_angle_deg for l in scenario.luminaires)
    return spacing / math.tan(math.radians(widest))


def check_resolve(stdout: str, scenario, plane_cm: float, threshold: float, rng: random.Random) -> None:
    lines = stdout.splitlines()
    tags = scenario.tags()
    _require(len(lines) == len(tags) + 3, f"resolve printed {len(lines)} lines")
    _require(lines[0] == f"plane_cm={plane_cm:g}", f"resolve header {lines[0]!r}")
    _require(lines[1] == f"threshold_ber={threshold!r}", f"resolve threshold {lines[1]!r}")
    entries = [_fields(line) for line in lines[2:-1]]
    _require([e.get("tag") for e in entries] == list(tags), "resolve tags out of order")
    sampled = set(rng.sample(range(len(tags)), min(RESOLVE_SAMPLE_TAGS, len(tags))))
    for i, entry in enumerate(entries):
        ber = float(entry["min_ber_under_lamp"])
        _require(entry.get("resolvable") == ("yes" if ber <= threshold else "no"),
                 f"resolve flag for {tags[i]}")
        if i in sampled:
            want = min(foot_bers(scenario, tags[i], plane_cm))
            _require(_close(ber, want), f"resolve {tags[i]}: {ber!r} != reference {want!r}")
    last = _fields(lines[-1]).get("critical_overlap_distance_m", "nan")
    want = critical_distance(scenario)
    _require(_close(float(last), want, 1e-12), f"critical distance {last} != {want!r}")


def check_mc(stdout: str, first: str | None, snr_list) -> None:
    lines = stdout.splitlines()
    _require(len(lines) == len(snr_list) + 1, f"mc-verify printed {len(lines)} lines")
    for line, snr in zip(lines, snr_list):
        fields = _fields(line)
        _require(fields.get("snr") == f"{snr:g}", f"mc-verify line {line!r}")
        _require(_close(float(fields["analytic"]), 0.5 * math.exp(-0.5 * snr)), f"analytic at snr {snr:g}")
    _require(lines[-1].endswith("ok=yes"), f"mc-verify: {lines[-1]!r}")
    _require(first is None or stdout == first, "mc-verify output differs between repeats")


def check_op(op, code: int, stdout: str, stderr: str, out: Path, scenario,
             rng: random.Random, first_stdout: str | None) -> None:
    """Raise VerifyError unless ``op`` succeeded and its outputs are right."""
    check_exit(code, stderr)
    if op.kind == "grid":
        csv_path = out / "grid.csv"
        expected = f"csv={csv_path} cells={op.res}x{op.res}\n"
        if op.heatmap:
            expected += f"pgm={out / 'grid.pgm'}\n"
        _require(stdout == expected, f"grid stdout {stdout!r}")
        rows = check_grid(csv_path, scenario, op.tag, op.plane_cm, op.res, rng)
        if op.doc == "g1":
            foot = scenario.luminaires_for(op.tag)[0].pose.position
            if foot.x == 0.0:
                check_mirror(rows, op.res, flip_x=True, flip_y=False)
            if foot.y == 0.0:
                check_mirror(rows, op.res, flip_x=False, flip_y=True)
        if op.heatmap:
            check_pgm(out / "grid.pgm", rows, op.res)
    elif op.kind == "sweep":
        check_sweep(stdout, out, scenario, op.tag, op.planes_cm, op.res, rng)
    elif op.kind == "coverage":
        check_coverage(stdout, op.doc, scenario, op.tag, op.threshold)
    elif op.kind == "resolve":
        check_resolve(stdout, scenario, op.plane_cm, op.threshold, rng)
    else:
        check_mc(stdout, first_stdout, MC_SNR_LIST)
