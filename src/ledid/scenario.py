"""Scenario definition, document loading, built-in layouts, grid engine.

A scenario is a room, a set of tag-broadcasting luminaires, one receiver
template, and the noise environment. The room is centered on the origin
in x and y (x in [-width/2, width/2], y in [-depth/2, depth/2]) with
z in [0, height]; keeping symmetric layouts numerically symmetric about
zero makes the mirror-symmetry guarantees of the grid engine exact.

Scenario documents are YAML with a fixed key set (unknown and repeated
keys are rejected so typos cannot silently fall back to defaults):

    metadata:             optional: name, description
    room:                 width_m, depth_m, height_m
    luminaire:            list; per entry: tag, x_m, y_m, z_m, power_w,
                          semi_angle_deg, mod_index (1.0),
                          baseband_power (0.5)
    detector:             area_m2, fov_deg, gain,
                          responsivity_a_per_w (0.54), bandwidth_hz (1.0e4)
    noise:                optional: background_current_a (0), i2 (0.56),
                          thermal_a2 (0), isi_a2 (0)

Values in parentheses are the defaults applied when a key is omitted.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .channel import DetectorModel, EmitterModel
from .errors import ParameterError, ScenarioParseError, ScenarioValidationError, TagNotFoundError
from .geometry import Pose, Vec3
from .link import LinkBudget, LinkColumns, ModulationParams, evaluate_points, luminaire_gains
from .noise import NoiseParams

_DOWN = Vec3(0.0, 0.0, -1.0)
_UP = Vec3(0.0, 0.0, 1.0)
# Tags go verbatim into CSV fields and output file names, so they are kept
# to characters that need no quoting, escaping or encoding in either.
_TAG = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Room:
    """Axis-aligned room volume; luminaires and grids must stay inside."""

    width_m: float
    depth_m: float
    height_m: float

    def __post_init__(self) -> None:
        for name in ("width_m", "depth_m", "height_m"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{name}: must be positive and finite, got {value}")

    def contains(self, point: Vec3) -> bool:
        return (
            abs(point.x) <= 0.5 * self.width_m
            and abs(point.y) <= 0.5 * self.depth_m
            and 0.0 <= point.z <= self.height_m
        )


@dataclass(frozen=True)
class Luminaire:
    """One tag-broadcasting LED source."""

    tag: str
    pose: Pose
    emitter: EmitterModel
    modulation: ModulationParams = field(default_factory=ModulationParams)


@dataclass(frozen=True)
class Scenario:
    """A complete simulation setup; immutable once constructed."""

    room: Room
    luminaires: tuple[Luminaire, ...]
    detector: DetectorModel
    receiver_axis: Vec3 = _UP
    noise: NoiseParams = field(default_factory=NoiseParams)
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if not self.luminaires:
            raise ScenarioValidationError("scenario must contain at least one luminaire")
        for i, lum in enumerate(self.luminaires):
            if not isinstance(lum.tag, str) or not _TAG.fullmatch(lum.tag):
                raise ScenarioValidationError(
                    f"luminaire[{i}].tag: must match {_TAG.pattern}, got {lum.tag!r}")
            if not self.room.contains(lum.pose.position):
                raise ScenarioValidationError(
                    f"luminaire[{i}]: position must lie inside the room volume")
        if abs(self.receiver_axis.norm() - 1.0) > 1e-9:
            raise ScenarioValidationError("receiver axis must be a unit vector")

    def tags(self) -> tuple[str, ...]:
        """Distinct tag ids in first-appearance order."""
        seen: dict[str, None] = {}
        for lum in self.luminaires:
            seen.setdefault(lum.tag, None)
        return tuple(seen)

    def luminaires_for(self, tag_id: str) -> tuple[Luminaire, ...]:
        found = tuple(lum for lum in self.luminaires if lum.tag == tag_id)
        if not found:
            raise TagNotFoundError(f"no luminaire carries tag {tag_id!r}")
        return found


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for a horizontal receiver plane.

    ``plane_distance_m`` is measured downward from the luminaire plane at
    the ceiling; ``resolution`` is cells per axis and each cell is sampled
    at its center (an open sampling of the field, not an average).
    """

    plane_distance_m: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: int

    def __post_init__(self) -> None:
        if not self.plane_distance_m > 0.0:
            raise ParameterError(f"plane distance must be positive, got {self.plane_distance_m}")
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, int) or self.resolution < 2:
            raise ParameterError(f"resolution must be an integer >= 2, got {self.resolution}")
        for name, (lo, hi) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ParameterError(f"{name} must be an increasing finite interval, got ({lo}, {hi})")

    @classmethod
    def for_room(cls, room: Room, plane_distance_m: float, resolution: int) -> "GridSpec":
        """Grid spanning the full room footprint."""
        half_w = 0.5 * room.width_m
        half_d = 0.5 * room.depth_m
        return cls(plane_distance_m, (-half_w, half_w), (-half_d, half_d), resolution)


@dataclass(frozen=True)
class BerGrid:
    """Link budgets for one tag at the cell centers of one receiver plane.

    ``columns`` holds one value per cell in row-major (y, x) order: the
    cell at ``(x_centers_m[ix], y_centers_m[iy])`` is entry
    ``iy * len(x_centers_m) + ix`` of every column. ``cells[iy][ix]`` is the
    same cell as a full LinkBudget, per-luminaire gains included; it is
    built on first use and kept.
    """

    spec: GridSpec
    tag_id: str
    x_centers_m: tuple[float, ...]
    y_centers_m: tuple[float, ...]
    columns: LinkColumns
    scenario: Scenario = field(repr=False)

    @cached_property
    def cells(self) -> tuple[tuple[LinkBudget, ...], ...]:
        z = self.scenario.room.height_m - self.spec.plane_distance_m
        tags = [lum.tag for lum in self.scenario.luminaires]
        c = self.columns
        rows = []
        for iy, y in enumerate(self.y_centers_m):
            gains = luminaire_gains(self.scenario, [(x, y, z) for x in self.x_centers_m]).tolist()
            rows.append(tuple(
                LinkBudget(tuple(zip(tags, row)), c.received_power_w[i], c.signal_ms_a2[i],
                           c.interference_ms_a2[i], c.noise_variance_a2[i], c.snr[i], c.ber[i])
                for i, row in enumerate(gains, iy * len(self.x_centers_m))))
        return tuple(rows)


def _cell_centers(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # (2i + 1 - n) / (2n) is an exact-negation ladder, so a symmetric range
    # yields exactly mirrored center coordinates; the grid symmetry
    # guarantees rely on this.
    mid = 0.5 * (lo + hi)
    span = hi - lo
    return tuple(mid + ((2 * i + 1 - n) / (2 * n)) * span for i in range(n))


def evaluate_grid(scenario: Scenario, spec: GridSpec, data_tag_id: str, workers: int = 1) -> BerGrid:
    """Evaluate the link budget for ``data_tag_id`` at every cell center.

    All cells go through ``evaluate_points`` as one batch, so each cell is
    bit-identical to ``evaluate_link`` at its center and the result is a
    pure function of the scenario and the spec. ``workers`` is accepted for
    compatibility and ignored; cells are evaluated on the calling thread,
    so it changes neither the output nor the speed.
    """
    scenario.luminaires_for(data_tag_id)
    room = scenario.room
    half_w = 0.5 * room.width_m
    half_d = 0.5 * room.depth_m
    if spec.x_range[0] < -half_w or spec.x_range[1] > half_w:
        raise ScenarioValidationError("grid x_range must lie within the room footprint")
    if spec.y_range[0] < -half_d or spec.y_range[1] > half_d:
        raise ScenarioValidationError("grid y_range must lie within the room footprint")
    if spec.plane_distance_m > room.height_m:
        raise ScenarioValidationError("plane distance must not exceed the room height")

    z = room.height_m - spec.plane_distance_m
    xs = _cell_centers(spec.x_range[0], spec.x_range[1], spec.resolution)
    ys = _cell_centers(spec.y_range[0], spec.y_range[1], spec.resolution)
    cells = len(xs) * len(ys)
    points = np.column_stack((np.tile(xs, len(ys)), np.repeat(ys, len(xs)), np.full(cells, z)))
    return BerGrid(spec=spec, tag_id=data_tag_id, x_centers_m=xs, y_centers_m=ys,
                   columns=evaluate_points(scenario, points, data_tag_id), scenario=scenario)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document."""
    scenario, _ = load_scenario_with_defaults(text)
    return scenario


def load_scenario_file(path: str | Path) -> Scenario:
    """Read and parse a scenario document from disk."""
    return load_scenario(Path(path).read_text(encoding="utf-8"))


def _model_keys(model: type) -> tuple[tuple[str, object], ...]:
    return tuple((f.name, f.default) for f in fields(model) if f.init)


# (section, required, keys): each section's keys in document order with
# their defaults, MISSING marking a required key. Keys named after a
# model's fields take that model's defaults, so each default lives in one
# place; the models' own checks are the only physical constraints.
_SCHEMA = (
    ("metadata", False, (("name", ""), ("description", ""))),
    ("room", True, _model_keys(Room)),
    ("luminaire", True, (("tag", MISSING), ("x_m", MISSING), ("y_m", MISSING), ("z_m", MISSING))
     + _model_keys(EmitterModel) + _model_keys(ModulationParams)),
    ("detector", True, _model_keys(DetectorModel)),
    ("noise", False, _model_keys(NoiseParams)),
)
# Keys holding text; every other key holds a number. Text defaults are
# descriptive, not physics, so they are not reported as applied.
_TEXT_KEYS = frozenset(("name", "description", "tag"))


class _DocumentLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a mapping key given twice is an error."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(node.value):
            seen = set()
            for key_node, _ in node.value:
                key = self.constructed_objects[key_node]
                if key in seen:
                    raise ScenarioParseError(
                        f"duplicate key {key!r} at line {key_node.start_mark.line + 1}")
                seen.add(key)
        return mapping


def load_scenario_with_defaults(text: str) -> tuple[Scenario, tuple[str, ...]]:
    """Like load_scenario, also reporting which optional keys were defaulted."""
    try:
        doc = yaml.load(text, Loader=_DocumentLoader)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises ValueError for an integer too long to convert.
        raise ScenarioParseError(f"document is not valid YAML: {exc}") from exc
    except RecursionError:
        # PyYAML composes nested collections recursively.
        raise ScenarioParseError("document is nested too deeply") from None
    values, applied = _read_document(doc)

    room = _build("room.", Room, **values["room"])
    luminaires = []
    for i, entry in enumerate(values["luminaire"]):
        path = f"luminaire[{i}]"
        position = _build(f"{path}: ", Vec3, entry["x_m"], entry["y_m"], entry["z_m"])
        luminaires.append(Luminaire(
            tag=entry["tag"],
            pose=Pose(position, _DOWN),
            emitter=_build(f"{path}.", EmitterModel, entry["power_w"], entry["semi_angle_deg"]),
            modulation=_build(f"{path}.", ModulationParams, entry["mod_index"], entry["baseband_power"]),
        ))
    scenario = Scenario(room=room, luminaires=tuple(luminaires),
                        detector=_build("detector.", DetectorModel, **values["detector"]),
                        noise=_build("noise.", NoiseParams, **values["noise"]),
                        name=values["metadata"]["name"], description=values["metadata"]["description"])
    return scenario, tuple(applied)


def builtin_l1() -> Scenario:
    """Three tags in a line at 16 cm pitch, centered under a 2 m ceiling."""
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    layout = (("outer-left", -0.16), ("inner", 0.0), ("outer-right", 0.16))
    luminaires = tuple(
        Luminaire(tag=tag, pose=Pose(Vec3(x, 0.0, 2.0), _DOWN), emitter=emitter)
        for tag, x in layout
    )
    return Scenario(
        room=Room(2.0, 2.0, 2.0),
        luminaires=luminaires,
        detector=DetectorModel(area_m2=1.0e-4, fov_deg=60.0, gain=1.3),
        noise=NoiseParams(),
        name="L1",
        description="three luminaires in a line at 16 cm spacing",
    )


def builtin_g1() -> Scenario:
    """Nine tags on a 3x3 grid at 16 cm pitch, centered under a 2 m ceiling."""
    emitter = EmitterModel(power_w=1.0, semi_angle_deg=20.0)
    layout = (
        ("nw", -0.16, 0.16), ("n", 0.0, 0.16), ("ne", 0.16, 0.16),
        ("w", -0.16, 0.0), ("center", 0.0, 0.0), ("e", 0.16, 0.0),
        ("sw", -0.16, -0.16), ("s", 0.0, -0.16), ("se", 0.16, -0.16),
    )
    luminaires = tuple(
        Luminaire(tag=tag, pose=Pose(Vec3(x, y, 2.0), _DOWN), emitter=emitter)
        for tag, x, y in layout
    )
    return Scenario(
        room=Room(2.0, 2.0, 2.0),
        luminaires=luminaires,
        detector=DetectorModel(area_m2=1.0e-4, fov_deg=60.0, gain=1.3),
        noise=NoiseParams(),
        name="G1",
        description="nine luminaires on a 3x3 grid at 16 cm spacing",
    )


def builtin_scenario_path(name: str) -> Path:
    """Filesystem path of a shipped scenario document ('l1' or 'g1')."""
    path = Path(__file__).parent / "scenarios" / f"{name.lower()}.yaml"
    if not path.is_file():
        raise ParameterError(f"no shipped scenario named {name!r}")
    return path


def _read_document(doc: object) -> tuple[dict, list[str]]:
    """Check a parsed document's shape against _SCHEMA and fill in defaults.

    Returns each section's values by key (the luminaire section as a list
    of them) and the path of every defaulted key, in document order.
    """
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level: expected a mapping of sections")
    _reject_unknown(doc, tuple(section for section, _, _ in _SCHEMA), "top level")
    values: dict = {}
    applied: list[str] = []
    for section, required, keys in _SCHEMA:
        if required and section not in doc:
            raise ScenarioParseError(f"{section}: missing required section")
        body = doc.get(section, {})
        if section == "luminaire":
            if not isinstance(body, list) or not body:
                raise ScenarioParseError("luminaire: expected a non-empty list of entries")
            values[section] = [_read_keys(entry, keys, f"luminaire[{i}]", applied)
                               for i, entry in enumerate(body)]
        else:
            values[section] = _read_keys(body, keys, section, applied)
    return values, applied


def _read_keys(mapping: object, keys: tuple[tuple[str, object], ...], path: str,
               applied: list[str]) -> dict:
    if not isinstance(mapping, dict):
        raise ScenarioParseError(f"{path}: expected a mapping")
    _reject_unknown(mapping, tuple(key for key, _ in keys), path)
    values = {}
    for key, default in keys:
        if key not in mapping:
            if default is MISSING:
                raise ScenarioParseError(f"{path}.{key}: missing required key")
            if key not in _TEXT_KEYS:
                applied.append(f"{path}.{key}")
            values[key] = default
            continue
        value = mapping[key]
        if key in _TEXT_KEYS:
            if not isinstance(value, str):
                raise ScenarioParseError(f"{path}.{key}: expected a string, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioParseError(f"{path}.{key}: expected a number, got {value!r}")
        else:
            try:
                value = float(value)
            except OverflowError:
                raise ScenarioParseError(f"{path}.{key}: number too large for a float") from None
        values[key] = value
    return values


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    # YAML keys may mix types (`1: x`), which plain sorting cannot compare.
    unknown = sorted((k for k in mapping if k not in allowed), key=str)
    if unknown:
        raise ScenarioParseError(f"{path}: unknown key {unknown[0]!r}")


def _build(prefix: str, model: type, *args, **kwargs):
    """Construct ``model``; its ParameterError becomes a validation error at ``prefix``."""
    try:
        return model(*args, **kwargs)
    except ParameterError as exc:
        raise ScenarioValidationError(f"{prefix}{exc}") from exc
