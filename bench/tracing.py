"""Spans around the calls benchmark ops make into each ledid module.

Spans are recorded by replacing a function where the *calling* module looks
it up, so nothing inside the package changes. A name that no longer exists
is skipped and its layer reports zero calls. Coarse calls become full spans
(layer, parent, start, end); the per-point calls (link evaluations and
channel gains, up to 10^5 per op) are aggregated into counters on the
innermost enclosing span, which keeps the trace small enough to hold in
memory and write out at the end.
"""

from __future__ import annotations

import importlib
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

# (calling module, name it looks up, layer)
SPAN_SITES = (
    ("ledid.cli", "load_scenario_with_defaults", "scenario.load"),
    ("ledid.cli", "evaluate_grid", "scenario.grid"),
    ("ledid.cli", "write_grid_csv", "export.write"),
    ("ledid.cli", "write_grid_pgm", "export.write"),
    ("ledid.cli", "coverage", "analysis.coverage"),
    ("ledid.cli", "resolvability", "analysis.resolve"),
    ("ledid.cli", "agreement_report", "oracle.agreement"),
    ("ledid.analysis", "scenario_critical_distance", "analysis.critical_distance"),
    ("ledid.export", "grid_csv_text", "export.csv"),
    ("ledid.export", "grid_pgm_text", "export.pgm"),
    ("ledid.oracle", "mc_ber_bfsk", "oracle.mc"),
)
LEAF_SITES = (
    ("ledid.cli", "evaluate_link", "link.evaluate"),
    ("ledid.scenario", "evaluate_link", "link.evaluate"),
    ("ledid.analysis", "evaluate_link", "link.evaluate"),
    ("ledid.link", "channel_gain", "channel.gain"),
)


@dataclass
class Span:
    layer: str
    parent: Span | None
    start: float
    end: float = 0.0
    children: list[Span] = field(default_factory=list)
    # leaf layer -> [calls, busy seconds, calls with a nonzero result]
    leaves: dict[str, list] = field(default_factory=dict)
    peak_alloc_b: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        # Children run one after another on the calling thread, so their
        # durations add up to the part of this span they cover.
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Installs wrappers for one op at a time and keeps every span.

    With ``track_memory`` tracemalloc runs during each op and grid spans
    record their peak allocation; it slows Python allocation several-fold,
    so spans timed for the busy-time metrics come from a tracer without it.
    """

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, name, layer in SPAN_SITES:
            self._patch(module_name, name, lambda fn, layer=layer: self._span_wrapper(layer, fn))
        for module_name, name, layer in LEAF_SITES:
            self._patch(module_name, name, lambda fn, layer=layer: self._leaf_wrapper(layer, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, module_name: str, name: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, name, None)
        if original is None:
            return
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def op(self, fn, *args):
        """Run one op under a root span named 'cli'."""
        root = Span("cli", None, 0.0)
        self.roots.append(root)
        self._stack.append(root)
        self.install()
        if self.track_memory:
            tracemalloc.start()
        root.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            root.end = time.perf_counter()
            if self.track_memory:
                tracemalloc.stop()
            self.uninstall()
            self._stack.pop()

    def _span_wrapper(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            span = Span(layer, parent, 0.0)
            parent.children.append(span)
            self._stack.append(span)
            memory = self.track_memory and layer == "scenario.grid"
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.peak_alloc_b = tracemalloc.get_traced_memory()[1] - base
                self._stack.pop()
        return wrapper

    def _leaf_wrapper(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            busy = time.perf_counter() - start
            # With workers > 1 the grid engine runs rows on pool threads
            # while the caller waits inside the grid span, the stack top.
            with self._lock:
                counts = self._stack[-1].leaves.setdefault(layer, [0, 0.0, 0])
                counts[0] += 1
                counts[1] += busy
                counts[2] += 1 if isinstance(result, float) and result != 0.0 else 0
            return result
        return wrapper

    def spans(self):
        """Every span, depth first."""
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))

    def to_json(self) -> list[dict]:
        index = {id(span): i for i, span in enumerate(self.spans())}
        return [{"id": index[id(s)], "parent": None if s.parent is None else index[id(s.parent)],
                 "layer": s.layer, "start": s.start, "end": s.end,
                 "leaves": s.leaves, "peak_alloc_b": s.peak_alloc_b}
                for s in self.spans()]


def peak_alloc_b(tracer: Tracer) -> int:
    return max((span.peak_alloc_b for span in tracer.spans()), default=0)


def layer_metrics(tracer: Tracer, ops, luminaires: dict[str, int], peak_alloc: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics. ``cli.calls`` is the number of traced ops; every
    other count or time is a mean per traced op, except the ratios and
    rates, and ``peak_alloc`` (bytes), the largest over all grid calls.

    ``ops`` are the traced ops in order, giving the counts computed from
    the inputs alone: grid cells, (cell, luminaire) pairs and MC trials.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    leaf = {"link.evaluate": [0, 0.0, 0], "channel.gain": [0, 0.0, 0]}
    coverage_points = 0
    write_self = 0.0
    for span in tracer.spans():
        calls[span.layer] = calls.get(span.layer, 0) + 1
        busy[span.layer] = busy.get(span.layer, 0.0) + span.duration
        if span.layer == "export.write":
            write_self += span.self_time()
        for name, counts in span.leaves.items():
            leaf[name] = [a + b for a, b in zip(leaf[name], counts)]
            if span.layer == "analysis.coverage" and name == "link.evaluate":
                coverage_points += counts[0]
    n = max(1, len(tracer.roots))
    cells = sum(op.cells() for op in ops)
    pairs = sum(op.cells() * luminaires.get(op.doc, 0) for op in ops)
    trials = sum(op.work() for op in ops if op.kind == "mc-verify")
    gain_calls = leaf["channel.gain"][0]
    coverage_calls = calls.get("analysis.coverage", 0)
    grid_busy = busy.get("scenario.grid", 0.0)
    return {
        "cli.calls": len(tracer.roots),
        "cli.self_s": sum(root.self_time() for root in tracer.roots) / n,
        "scenario.load.calls": calls.get("scenario.load", 0) / n,
        "scenario.load.busy_s": busy.get("scenario.load", 0.0) / n,
        "scenario.load.luminaires": sum(luminaires.get(op.doc, 0) for op in ops) / n,
        "scenario.grid.calls": calls.get("scenario.grid", 0) / n,
        "scenario.grid.busy_s": grid_busy / n,
        "scenario.grid.cells": cells / n,
        "scenario.grid.peak_alloc_mib": peak_alloc / 2 ** 20,
        "link.evaluate.calls": leaf["link.evaluate"][0] / n,
        "link.evaluate.busy_s": leaf["link.evaluate"][1] / n,
        "channel.gain.calls": gain_calls / n,
        "channel.gain.busy_s": leaf["channel.gain"][1] / n,
        "channel.gain.nonzero_frac": leaf["channel.gain"][2] / gain_calls if gain_calls else 0.0,
        "channel.pairs": pairs / n,
        "channel.pairs_per_s": pairs / grid_busy if grid_busy else 0.0,
        "analysis.coverage.calls": coverage_calls / n,
        "analysis.coverage.busy_s": busy.get("analysis.coverage", 0.0) / n,
        "analysis.coverage.points_per_query": coverage_points / coverage_calls if coverage_calls else 0.0,
        "analysis.resolve.busy_s": busy.get("analysis.resolve", 0.0) / n,
        "analysis.critical_distance.busy_s": busy.get("analysis.critical_distance", 0.0) / n,
        "export.csv.busy_s": busy.get("export.csv", 0.0) / n,
        "export.pgm.busy_s": busy.get("export.pgm", 0.0) / n,
        "export.write.busy_s": write_self / n,
        "oracle.mc.calls": calls.get("oracle.mc", 0) / n,
        "oracle.mc.busy_s": busy.get("oracle.mc", 0.0) / n,
        "oracle.mc.trials": trials / n,
        # float64 arrays the kernel names per trial: 4 uniforms, 10 derived
        # values, plus the 1-byte comparison; computed, not measured.
        "oracle.mc.bytes_computed": trials * (14 * 8 + 1) / n,
        "trace.overhead_frac": overhead_frac,
    }
