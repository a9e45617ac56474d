"""Benchmark of the ledid command line, run in-process as a closed loop.

One client calls ``ledid.cli.main(argv)`` with seeded, generated inputs,
waits for each command to finish, checks its outputs, and sends the next.
Whole cycles of the workload's ops are repeated until ``--seconds`` have
passed. The last line of stdout is one JSON object with the result; the
lines before it record the machine, the inputs and each metric with its
unit.

    python3 bench/run.py --workload ceiling-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 1`` untraced and traced cycles alternate: the traced ones
give the per-layer metrics, the untraced ones the tracing overhead.
Run from the root of a checkout; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
HARD_CAP_S = 150.0
REF_POINTS = 4000

# Run in a fresh interpreter: import ledid, then parse and validate the
# given documents; print the seconds that took.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ledid.scenario import load_scenario_with_defaults
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        load_scenario_with_defaults(handle.read())
print(time.perf_counter() - start)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _machine() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import yaml
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__, "commit": _commit()}


def _commit() -> str | None:
    # The benchmark may run from an export that is not a git repository.
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    return None


def _setup_seconds(doc_paths: list[Path]) -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), *map(str, doc_paths)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def reference_s() -> float:
    """Wall time of a fixed pure-Python computation, about 2 ms.

    It is written like the package's per-point code (float math, small
    tuples, list appends) and is timed just before and just after every op.
    On a shared host the speed of the same code drifts by up to 2x over tens
    of seconds, so a run's wall times depend on when it ran; an op's wall
    time divided by the mean of its two reference times does not, and the
    timing metrics are given in these reference units ("ref").
    """
    start = time.perf_counter()
    points = []
    total = 0.0
    for i in range(REF_POINTS):
        x = (i % 97) * 0.01
        h = math.cos(x) ** 3 / (x * x + 2.25)
        points.append((i, h))
        total += h
    return time.perf_counter() - start


def _tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    if len(times) < MIN_OPS:
        return None
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Runner:
    """Runs ops of one workload and checks them."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        import ledid
        import verify
        from ledid import cli
        self.cli = cli
        self.verify = verify
        self.workload = workload
        self.seed = seed
        self.work = work
        self.doc_paths: dict[str, Path] = {}
        for key, text in workload.documents.items():
            path = work / f"{key}.yaml"
            path.write_text(text, encoding="utf-8")
            self.doc_paths[key] = path
        for key in workload.shipped:
            self.doc_paths[key] = ledid.builtin_scenario_path(key)
        self.scenarios = {key: ledid.load_scenario_file(path) for key, path in self.doc_paths.items()}
        self.first_stdout: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int, tracer=None) -> tuple[float, float, int]:
        """One op: returns its wall time, the mean of the reference times
        taken just before and just after it, and the CSV bytes it wrote."""
        op = self.workload.ops[index]
        out = self.work / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = op.argv(self.doc_paths.get(op.doc), out)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        before = reference_s()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = tracer.op(self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                code = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - start
        reference = (before + reference_s()) / 2.0
        self.attempted += 1
        rng = random.Random(f"verify:{self.seed}:{index}:{self.attempted}")
        try:
            self.verify.check_op(op, code, stdout.getvalue(), stderr.getvalue(), out,
                            self.scenarios.get(op.doc), rng, self.first_stdout.get(index))
            self.first_stdout.setdefault(index, stdout.getvalue())
        except (self.verify.VerifyError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"op {index} ({' '.join(argv[:2])}): {exc}")
        csv_bytes = sum(p.stat().st_size for p in out.rglob("*.csv"))
        return elapsed, reference, csv_bytes


def _measure(runner, seconds: float, doc_paths: list[Path]) -> dict:
    times: list[float] = []
    refs: list[float] = []
    setups: list[float] = []
    work = 0
    start = time.perf_counter()
    while True:
        # Spread the set-up probes over the run, so they see the same
        # machine conditions as the ops rather than one moment of them.
        while (len(setups) < SETUP_REPEATS
               and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(_setup_seconds(doc_paths))
        for index, op in enumerate(runner.workload.ops):
            elapsed, reference, _ = runner.run(index)
            times.append(elapsed)
            refs.append(reference)
            work += op.work()
        spent = time.perf_counter() - start
        if (spent >= seconds and len(times) >= MIN_OPS and len(setups) == SETUP_REPEATS) \
                or spent >= HARD_CAP_S:
            break
    scaled = [t / r for t, r in zip(times, refs)]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": len(scaled) / sum(scaled),
        "op_p50_ref": statistics.median(scaled),
        "work_per_ref": work / sum(scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = _tail(scaled)
    notes = {}
    if tail is not None:
        metrics["op_tail_ref"] = tail[0]
        notes["op_tail_ref"] = f"p{tail[1]:.1f} of {len(times)} ops, {TAIL_BEYOND} beyond"
    notes["work_per_ref"] = f"{runner.workload.work_unit} per ref of op time"
    notes["setup_s"] = f"median of {len(setups)} fresh interpreters"
    # The same figures in wall time, for reading; they are not compared
    # across runs because they follow the host's drift.
    wall = {"ref_p50_ms": 1e3 * statistics.median(refs), "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times), "work_per_s": work / sum(times)}
    if tail is not None:
        wall["op_tail_s"] = _tail(times)[0]
    return {"metrics": metrics, "notes": notes, "wall": wall}


def _measure_traced(runner, seconds: float) -> dict:
    from tracing import Tracer, layer_metrics, peak_alloc_b
    ops = runner.workload.ops
    # tracemalloc slows these ops several-fold, so trace the first op of
    # each grid shape only; the peak depends on the shape, not the tag.
    memory = Tracer(track_memory=True)
    shapes = {}
    for index, op in enumerate(ops):
        if op.cells():
            shapes.setdefault((op.kind, op.doc, op.res), index)
    for index in shapes.values():
        runner.run(index, memory)
    tracer = Tracer()
    plain = traced = 0.0
    traced_ops = []
    csv_bytes = 0
    start = time.perf_counter()
    while True:
        for index in range(len(ops)):
            elapsed, reference, _ = runner.run(index)
            plain += elapsed / reference
        for index, op in enumerate(ops):
            elapsed, reference, written = runner.run(index, tracer)
            traced += elapsed / reference
            csv_bytes += written
            traced_ops.append(op)
        if time.perf_counter() - start >= seconds:
            break
    metrics = layer_metrics(tracer, traced_ops, runner.workload.luminaires, peak_alloc_b(memory),
                            traced / plain - 1.0)
    metrics["export.csv.bytes"] = csv_bytes / len(traced_ops)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{runner.workload.name}-seed{runner.seed}.json"
    trace_path.write_text(json.dumps({"ops": [dataclasses.asdict(op) for op in traced_ops],
                                      "spans": tracer.to_json()}) + "\n")
    return {"metrics": metrics, "notes": {"trace.overhead_frac": f"spans in {trace_path.relative_to(ROOT)}"}}


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    if not (SRC / "ledid" / "__init__.py").is_file():
        print(f"error: no ledid package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    workload = gen.make_workload(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(workload, args.seed, work)
        generated = [runner.doc_paths[key] for key in workload.documents]
        shipped = [runner.doc_paths[key] for key in workload.shipped]
        print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("machine " + json.dumps(_machine(), sort_keys=True))
        print("inputs " + json.dumps({
            "luminaires": workload.luminaires,
            "ops_per_cycle": [dataclasses.asdict(op) for op in workload.ops],
            "cells_per_cycle": sum(op.cells() for op in workload.ops),
            "work_per_cycle": sum(op.work() for op in workload.ops),
            "work_unit": workload.work_unit,
        }, sort_keys=True))
        if args.trace:
            result = _measure_traced(runner, args.seconds)
        else:
            result = _measure(runner, args.seconds, generated + shipped)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(runner.failures)
    if "wall" in result:
        print("wall " + " ".join(f"{name}={value:.6g}" for name, value in result["wall"].items()))
    for name, value in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"metric {name} = {value:.6g} {units[name]}" + (f" ({note})" if note else ""))
    # failed_frac is 0 on a correct program, so it is reported here and in
    # the result's failed/attempted rather than as a bounded metric.
    print(f"ops attempted={runner.attempted} failed={failed} failed_frac={failed / runner.attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    import gen
    status = 0
    for name in gen.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                               "--trace", str(args.trace)], timeout=HARD_CAP_S + 60)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
