"""Seeded inputs for the ledid benchmark: scenario documents and op lists.

Everything here is a pure function of the seed: the same seed gives
byte-identical YAML documents and the same ops in the same order. A
workload's ops form one cycle; the benchmark repeats whole cycles, so the
mix of op kinds in a run never depends on how fast the program is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ceiling-grid", "shipped-sweep", "planning", "mc-verify")

L1_TAGS = ("outer-left", "inner", "outer-right")
G1_TAGS = ("nw", "n", "ne", "w", "center", "e", "sw", "s", "se")
# G1 tags whose lamp sits on a mirror axis of the layout, so a single grid
# is exactly mirror-symmetric and the verifier can check it bit for bit.
G1_AXIS_TAGS = ("n", "w", "center", "e", "s")

SHIPPED_PLANES_CM = (30.0, 40.0, 50.0)
CEILING16_PLANES_CM = (60.0, 80.0, 100.0, 120.0, 150.0)

CEILING_GRID_PLANE_CM = 120.0
CEILING_GRID_RES = 32
CEILING_GRID_OPS = 4
G1_GRID_RES = 72
# A lower plane puts more cells outside the lamps' field of view, which are
# cheaper; a G1 grid at 30 cm costs about 15% less than one at 50 cm. One
# plane for every seed keeps that out of the run-to-run spread.
G1_GRID_PLANE_CM = 40.0
L1_SWEEP_RES = 48
MC_TRIALS = 250_000
MC_SNR_LIST = (0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0)  # the CLI's default list


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output must satisfy."""

    kind: str                  # grid | sweep | coverage | resolve | mc-verify
    doc: str = ""              # key into the workload's documents
    tag: str = ""
    plane_cm: float = 0.0
    planes_cm: tuple[float, ...] = ()
    res: int = 0
    heatmap: bool = False
    threshold: float = 1e-2
    trials: int = 0
    seed: int = 0

    def argv(self, doc_path: Path | None, out: Path) -> list[str]:
        """Command line for ``ledid.cli.main``; outputs go under ``out``."""
        if self.kind == "grid":
            argv = ["grid", str(doc_path), "--tag", self.tag, "--plane-cm", repr(self.plane_cm),
                    "--res", str(self.res), "--out", str(out / "grid.csv"), "--workers", "1"]
            if self.heatmap:
                argv += ["--heatmap", str(out / "grid.pgm")]
            return argv
        if self.kind == "sweep":
            return ["sweep", str(doc_path), "--tag", self.tag,
                    "--planes-cm", ",".join(f"{p:g}" for p in self.planes_cm),
                    "--res", str(self.res), "--out", str(out / "sweep"), "--workers", "1"]
        if self.kind == "coverage":
            return ["coverage", str(doc_path), "--tag", self.tag, "--threshold", repr(self.threshold)]
        if self.kind == "resolve":
            return ["resolve", str(doc_path), "--plane-cm", repr(self.plane_cm),
                    "--threshold", repr(self.threshold)]
        return ["mc-verify", "--trials", str(self.trials), "--seed", str(self.seed)]

    def cells(self) -> int:
        """Grid cells this op evaluates and exports."""
        if self.kind == "grid":
            return self.res * self.res
        if self.kind == "sweep":
            return len(self.planes_cm) * self.res * self.res
        return 0

    def work(self) -> int:
        """Units counted by ``work_per_s``: cells, queries or Monte Carlo trials."""
        if self.kind in ("grid", "sweep"):
            return self.cells()
        if self.kind == "mc-verify":
            return len(MC_SNR_LIST) * self.trials
        return 1


@dataclass(frozen=True)
class Workload:
    name: str
    documents: dict[str, str]     # generated YAML text by key
    shipped: tuple[str, ...]      # shipped documents used, by key ('l1', 'g1')
    luminaires: dict[str, int]    # luminaire count of every document used
    ops: tuple[Op, ...]           # one cycle
    work_unit: str


def _yaml_float(value: float) -> str:
    # PyYAML reads '1e-05' as a string; it needs a '.' in the mantissa.
    text = repr(float(value))
    if "e" in text:
        mantissa, exponent = text.split("e")
        if "." not in mantissa:
            mantissa += ".0"
        text = f"{mantissa}e{exponent}"
    return text


def _document(name: str, room: tuple[float, float, float], lamps: list[dict], noise: dict) -> str:
    lines = [f"# Generated by the ledid benchmark: {name}.",
             "metadata:", f"  name: {name}",
             "room:",
             f"  width_m: {_yaml_float(room[0])}",
             f"  depth_m: {_yaml_float(room[1])}",
             f"  height_m: {_yaml_float(room[2])}",
             "luminaire:"]
    for lamp in lamps:
        first = True
        for key, value in lamp.items():
            text = value if isinstance(value, str) else _yaml_float(value)
            lines.append(f"  {'- ' if first else '  '}{key}: {text}")
            first = False
    lines += ["detector:", "  area_m2: 1.0e-4", "  fov_deg: 60.0", "  gain: 1.3"]
    if noise:
        lines.append("noise:")
        lines += [f"  {key}: {_yaml_float(value)}" for key, value in noise.items()]
    return "\n".join(lines) + "\n"


def ceiling(name: str, n: int, pitch_m: float, tags: int, rng: random.Random) -> str:
    """An n x n ceiling at a fixed pitch; each tag is shared by n*n/tags lamps.

    Positions are fixed and exactly symmetric about the origin; the seed
    picks which lamps share a tag, and each lamp's power and semi-angle.
    """
    height = 3.0
    labels = [f"t{i:02d}" for i in range(tags) for _ in range(n * n // tags)]
    rng.shuffle(labels)
    lamps = []
    for iy in range(n):
        for ix in range(n):
            lamps.append({
                "tag": labels[iy * n + ix],
                "x_m": (ix - (n - 1) / 2) * pitch_m,
                "y_m": (iy - (n - 1) / 2) * pitch_m,
                "z_m": height,
                "power_w": round(rng.uniform(0.8, 1.2), 3),
                "semi_angle_deg": round(rng.uniform(15.0, 35.0), 2),
            })
    return _document(name, (n * pitch_m, n * pitch_m, height), lamps, {})


def single_lamp(rng: random.Random) -> str:
    """One lamp with ambient and thermal noise: coverage bisects, no scan."""
    lamps = [{"tag": "solo", "x_m": 0.0, "y_m": 0.0, "z_m": 3.0, "power_w": 1.0,
              "semi_angle_deg": round(rng.uniform(20.0, 40.0), 2)}]
    noise = {"background_current_a": round(rng.uniform(1.0e-4, 1.0e-3), 7),
             "thermal_a2": round(rng.uniform(1.0, 10.0), 3) * 1.0e-12}
    return _document("single-lamp", (4.0, 4.0, 3.0), lamps, noise)


def _tag_count(text: str) -> int:
    return text.count("\n  - tag: ")


def make_workload(name: str, seed: int) -> Workload:
    """The documents and one op cycle of workload ``name`` for ``seed``."""
    rng = random.Random(f"ledid-bench:{name}:{seed}")
    if name == "ceiling-grid":
        doc = ceiling("ceiling-8x8", 8, 0.4, 16, rng)
        tags = rng.sample([f"t{i:02d}" for i in range(16)], CEILING_GRID_OPS)
        ops = tuple(Op("grid", "ceiling8", tag=t, plane_cm=CEILING_GRID_PLANE_CM,
                       res=CEILING_GRID_RES) for t in tags)
        return Workload(name, {"ceiling8": doc}, (), {"ceiling8": _tag_count(doc)}, ops, "cells")
    if name == "shipped-sweep":
        # Two G1 grids and one L1 sweep: with an odd cycle the median op
        # falls inside one group instead of between the two kinds.
        g1 = [Op("grid", "g1", tag=tag, plane_cm=G1_GRID_PLANE_CM, res=G1_GRID_RES, heatmap=True)
              for tag in rng.sample(G1_AXIS_TAGS, 2)]
        ops = (g1[0], Op("sweep", "l1", tag=rng.choice(L1_TAGS), planes_cm=SHIPPED_PLANES_CM,
                         res=L1_SWEEP_RES), g1[1])
        return Workload(name, {}, ("l1", "g1"), {"l1": 3, "g1": 9}, ops, "cells")
    if name == "planning":
        big = ceiling("ceiling-16x16", 16, 0.5, 64, rng)
        lamp = single_lamp(rng)
        # Five of the eight ops are long (four coverage scans and the
        # 256-lamp resolve), so the median op is a long one, not a
        # millisecond op whose time is mostly noise; it falls in the middle
        # of the two L1 scans, which are a quarter of all ops.
        ops = [
            *(Op("coverage", "l1", tag=tag) for tag in rng.sample(L1_TAGS, 2)),
            *(Op("coverage", "g1", tag=tag) for tag in rng.sample(G1_TAGS, 2)),
            Op("coverage", "lamp", tag="solo", threshold=rng.choice((1e-2, 1e-3))),
            Op("resolve", "l1", plane_cm=rng.choice(SHIPPED_PLANES_CM)),
            Op("resolve", "g1", plane_cm=rng.choice(SHIPPED_PLANES_CM)),
            Op("resolve", "ceiling16", plane_cm=rng.choice(CEILING16_PLANES_CM)),
        ]
        rng.shuffle(ops)
        return Workload(name, {"ceiling16": big, "lamp": lamp}, ("l1", "g1"),
                        {"l1": 3, "g1": 9, "ceiling16": _tag_count(big), "lamp": 1},
                        tuple(ops), "queries")
    if name == "mc-verify":
        ops = (Op("mc-verify", trials=MC_TRIALS, seed=seed % 2 ** 64),)
        return Workload(name, {}, (), {}, ops, "trials")
    raise ValueError(f"unknown workload {name!r}")
