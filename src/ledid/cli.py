"""Command-line interface.

Commands: validate, grid, sweep, coverage, resolve, mc-verify. Every
output byte is a pure function of the input files and flags; nothing
depends on the clock, locale or environment.

Exit codes: 0 success, 1 domain error (parse/validation failures, unknown
tags, unwritable outputs, requests too large for memory), 2 usage error
(bad flags, missing files).
Standard output counts as an output: when its reader has gone (``ledid
validate l1.yaml | head -n 0``) the command exits 1 and prints nothing,
since it may have stopped before the end of its work.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Sequence

from .analysis import coverage, foot_bers, resolvability
from .channel import lambertian_order
from .errors import LedIdError
from .export import write_grid_csv, write_grid_pgm
from .oracle import agreement_report
from .scenario import Scenario, evaluate_grid, load_scenario_with_defaults, read_scenario_text

_DEFAULT_SNR_LIST = "0,1,2,4,8,12,16"
_WORKERS_HELP = "accepted for compatibility (>= 1); changes neither output nor speed (default 1)"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing to say to a reader that has gone. Standard output now
        # points at the null device, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _main(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except (LedIdError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


class _UsageError(Exception):
    pass


@functools.cache  # built on the first main() call, not at import, and reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledid",
        description="Simulate and plan dense LED-ID tag installations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a scenario document and print a summary")
    p.add_argument("scenario", help="path to a scenario YAML document")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("grid", help="compute a BER grid and export CSV (and optionally PGM)")
    p.add_argument("scenario")
    p.add_argument("--tag", required=True, help="data tag id")
    p.add_argument("--plane-cm", type=float, required=True,
                   help="receiver plane distance below the luminaire plane, in cm")
    p.add_argument("--res", type=int, default=64, help="cells per axis (default 64)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--heatmap", default=None, help="optional PGM output path")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("sweep", help="compute BER grids for several plane distances")
    p.add_argument("scenario")
    p.add_argument("--tag", required=True)
    p.add_argument("--planes-cm", required=True,
                   help="comma-separated plane distances in cm, e.g. 30,40,50")
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--out", required=True, help="output directory for the per-plane CSVs")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("coverage", help="maximum reliable read distance and angle for a tag")
    p.add_argument("scenario")
    p.add_argument("--tag", required=True)
    p.add_argument("--threshold", type=float, default=1e-2)
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("resolve", help="per-tag resolvability on a receiver plane")
    p.add_argument("scenario")
    p.add_argument("--plane-cm", type=float, required=True)
    p.add_argument("--threshold", type=float, default=1e-2)
    p.set_defaults(handler=_cmd_resolve)

    p = sub.add_parser("mc-verify", help="Monte Carlo check of the analytic BFSK error rate")
    p.add_argument("--snr-list", default=_DEFAULT_SNR_LIST,
                   help=f"comma-separated SNR values (default {_DEFAULT_SNR_LIST})")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_mc_verify)

    return parser


def _load(path_text: str) -> tuple[Scenario, tuple[str, ...]]:
    path = Path(path_text)
    if not path.is_file():
        raise _UsageError(f"scenario file not found: {path_text}")
    try:
        text = read_scenario_text(path)
    except OSError as exc:
        raise _UsageError(f"cannot read scenario file: {exc}") from exc
    return load_scenario_with_defaults(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario, applied = _load(args.scenario)
    print(f"name={scenario.name or '(unnamed)'}")
    print(f"room_m={scenario.room.width_m:g}x{scenario.room.depth_m:g}x{scenario.room.height_m:g}")
    print(f"luminaires={len(scenario.luminaires)}")
    print(f"tags={','.join(scenario.tags())}")
    for semi in sorted({lum.emitter.semi_angle_deg for lum in scenario.luminaires}):
        print(f"lambertian_order[semi_angle_deg={semi:g}]={lambertian_order(semi):.4f}")
    print(f"defaults_applied={','.join(applied) if applied else '(none)'}")
    return 0


def _load_for_grids(args: argparse.Namespace) -> Scenario:
    scenario, _ = _load(args.scenario)
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    return scenario


def _positive(flag: str, value: float) -> float:
    if not value > 0.0:
        raise _UsageError(f"{flag} must be positive, got {value:g}")
    return value


def _float_list(flag: str, text: str, what: str) -> list[float]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise _UsageError(f"{flag} must list at least one {what}")
    try:
        return [float(item) for item in items]
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _grid_plane(scenario: Scenario, flag: str, plane_cm: float, res: int) -> float:
    # The plane in metres, after the usage checks of the plane and --res.
    if res < 2:
        raise _UsageError(f"--res must be at least 2, got {res}")
    plane_m = _positive(flag, plane_cm) / 100.0
    scenario.room.plane_z(plane_m)
    return plane_m


def _same_file(a: str | Path, b: str | Path) -> bool:
    # Where both files exist, samefile decides (hard links too) in two stats.
    # Otherwise the paths are compared: realpath is Path.resolve that takes
    # a symlink loop as it stands, with no RuntimeError.
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(scenario: str, outputs: Sequence[tuple[str, str, str | Path]]) -> None:
    # grid's and sweep's one path rule: no output (flag, name, path) may be the
    # scenario document or another output. Checked before anything is
    # evaluated or written.
    for i, (flag, name, path) in enumerate(outputs):
        if _same_file(path, scenario):
            raise _UsageError(f"{flag}: {path} is the scenario document")
        for _, other, other_path in outputs[:i]:
            if _same_file(path, other_path):
                raise _UsageError(f"{flag}: {other} and {name} would both write {path}")


def _cmd_grid(args: argparse.Namespace) -> int:
    scenario = _load_for_grids(args)
    outputs = [("--out", "--out", args.out)]
    if args.heatmap is not None:
        outputs.append(("--heatmap", "--heatmap", args.heatmap))
    _check_outputs(args.scenario, outputs)
    plane_m = _grid_plane(scenario, "--plane-cm", args.plane_cm, args.res)
    grid = evaluate_grid(scenario, plane_m, args.res, args.tag)
    # Lines are printed after every write, so none names a file a later failure left unwritten.
    write_grid_csv(grid, args.out)
    lines = [f"csv={args.out} cells={args.res}x{args.res}"]
    if args.heatmap is not None:
        write_grid_pgm(grid, args.heatmap)
        lines.append(f"pgm={args.heatmap}")
    print("\n".join(lines))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_for_grids(args)
    plane_values = _float_list("--planes-cm", args.planes_cm, "plane distance")
    names = [f"{args.tag}_plane{plane_cm:g}cm.csv" for plane_cm in plane_values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise _UsageError(f"--planes-cm: two planes would both write {name}")
    out_dir = Path(args.out)
    _check_outputs(args.scenario, [("--out", f"plane {plane_cm:g}", out_dir / name)
                                   for plane_cm, name in zip(plane_values, names)])
    # Every flag is checked, and every plane is evaluated (the first checks
    # the tag), before anything is written: an error leaves no output.
    planes_m = [_grid_plane(scenario, "--planes-cm", plane_cm, args.res) for plane_cm in plane_values]

    planes = []
    for plane_cm, plane_m, name in zip(plane_values, planes_m, names):
        grid = evaluate_grid(scenario, plane_m, args.res, args.tag)
        csv_path = out_dir / name
        # Summary: min and median of the error rate at the foot of each lamp.
        bers = foot_bers(scenario, plane_cm / 100.0, args.tag)
        planes.append((grid, csv_path, f"plane_cm={plane_cm:g} csv={csv_path} min_ber={min(bers)!r} "
                                       f"median_ber={statistics.median(bers)!r}"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for grid, csv_path, _ in planes:
        write_grid_csv(grid, csv_path)
    print("\n".join(summary for *_, summary in planes))
    return 0


def _distance(value: float) -> str:
    return "unbounded" if math.isinf(value) else repr(value)


def _cmd_coverage(args: argparse.Namespace) -> int:
    scenario, _ = _load(args.scenario)
    report = coverage(scenario, args.tag, threshold=_positive("--threshold", args.threshold))
    print(f"tag={report.tag_id}")
    print(f"threshold_ber={report.threshold_ber!r}")
    print(f"max_reliable_distance_m={_distance(report.max_reliable_distance_m)}")
    print(f"max_reliable_angle_deg={report.max_reliable_angle_deg!r}")
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    scenario, _ = _load(args.scenario)
    plane_m = _positive("--plane-cm", args.plane_cm) / 100.0
    report = resolvability(scenario, plane_m, threshold=_positive("--threshold", args.threshold))
    print(f"plane_cm={args.plane_cm:g}")
    print(f"threshold_ber={report.threshold_ber!r}")
    for entry in report.tags:
        flag = "yes" if entry.resolvable else "no"
        print(f"tag={entry.tag_id} min_ber_under_lamp={entry.min_ber_under_lamp!r} resolvable={flag}")
    print(f"critical_overlap_distance_m={_distance(report.critical_overlap_distance_m)}")
    return 0


def _cmd_mc_verify(args: argparse.Namespace) -> int:
    snr_values = tuple(_float_list("--snr-list", args.snr_list, "SNR"))
    if any(not s >= 0.0 for s in snr_values):
        raise _UsageError("--snr-list values must be >= 0 (NaN is not)")
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if not 0 <= args.seed < 2 ** 64:
        raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")

    points = agreement_report(snr_values, args.trials, args.seed)
    failures = 0
    for pt in points:
        status = "pass" if pt.within_3_sigma else "FAIL"
        failures += 0 if pt.within_3_sigma else 1
        print(f"snr={pt.snr:g} analytic={pt.analytic!r} estimate={pt.estimate!r} "
              f"std_error={pt.std_error!r} {status}")
    # At 3 sigma a rare statistical miss is expected; tolerate one point.
    ok = failures <= 1
    print(f"agreement={len(points) - failures}/{len(points)} ok={'yes' if ok else 'no'}")
    if not ok:
        print(f"error: {failures} of {len(points)} estimates miss the analytic BER by more than "
              f"3 standard errors", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
