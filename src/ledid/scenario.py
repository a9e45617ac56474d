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

Documents are scanned and parsed by libyaml through PyYAML's C extension,
which is required, and ``_DocumentLoader`` builds the objects from its
events without recursion, resolving and constructing scalars as PyYAML's
safe loader does. More than 500 nested collections is a parse error
("document is nested too deeply"), and YAML syntax errors carry libyaml's
wording.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from types import GeneratorType

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.cyaml import CParser
from yaml.events import (AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, SequenceEndEvent,
                         StreamEndEvent)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from .channel import DetectorModel, EmitterModel
from .errors import (ParameterError, PlaneOutsideRoomError, ScenarioParseError, ScenarioValidationError,
                     TagNotFoundError, check_positive_finite)
from .geometry import AXIS_TOL, Pose, Vec3
from .link import LinkColumns, LuminaireArrays, ModulationParams, evaluate_points
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
        check_positive_finite(self, "width_m", "depth_m", "height_m")

    def contains(self, point: Vec3) -> bool:
        return (
            abs(point.x) <= 0.5 * self.width_m
            and abs(point.y) <= 0.5 * self.depth_m
            and 0.0 <= point.z <= self.height_m
        )

    def plane_z(self, plane_distance_m: float) -> float:
        """Height of the receiver plane ``plane_distance_m`` below the ceiling.

        The one rule for a plane in the room: the distance must lie in
        (0, height_m], else PlaneOutsideRoomError.
        """
        if not 0.0 < plane_distance_m <= self.height_m:
            raise PlaneOutsideRoomError(
                f"plane distance must be in (0, {self.height_m}] m, got {plane_distance_m}")
        return self.height_m - plane_distance_m


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
        if abs(self.receiver_axis.norm() - 1.0) > AXIS_TOL:
            raise ScenarioValidationError("receiver axis must be a unit vector")

    @cached_property
    def luminaire_arrays(self) -> LuminaireArrays:
        """The luminaires as read-only arrays for the batch kernel, built on first use."""
        return LuminaireArrays.of(self.luminaires, self._tag_index)

    @cached_property
    def _tag_index(self) -> dict[str, int]:
        """Each distinct tag the luminaires carry by its code, its index in first-appearance order."""
        return {tag: code for code, tag in enumerate(dict.fromkeys(lum.tag for lum in self.luminaires))}

    def tag_codes(self, tag_ids) -> list[int]:
        """The code of each of ``tag_ids``, its index in tags(); TagNotFoundError names the first unknown."""
        try:
            return list(map(self._tag_index.__getitem__, tag_ids))
        except KeyError as exc:
            tag = exc.args[0]
            name = str(tag) if isinstance(tag, str) else tag  # a numpy string reads as the str it equals
            raise TagNotFoundError(f"no luminaire carries tag {name!r}") from None

    def tags(self) -> tuple[str, ...]:
        """Distinct tag ids in first-appearance order."""
        return tuple(self._tag_index)

    def luminaires_for(self, tag_id: str) -> tuple[Luminaire, ...]:
        self.tag_codes((tag_id,))
        return tuple(lum for lum in self.luminaires if lum.tag == tag_id)


@dataclass(frozen=True)
class BerGrid:
    """Link budgets for one tag at the cell centers of one receiver plane.

    The plane lies ``plane_distance_m`` below the ceiling and the grid
    spans the room footprint, ``len(x_centers_m)`` cells per axis.
    ``columns`` holds one value per cell in row-major (y, x) order: the
    cell at ``(x_centers_m[ix], y_centers_m[iy])`` is entry
    ``iy * len(x_centers_m) + ix`` of every column.
    """

    plane_distance_m: float
    tag_id: str
    x_centers_m: tuple[float, ...]
    y_centers_m: tuple[float, ...]
    columns: LinkColumns


def _cell_centers(span: float, n: int) -> tuple[float, ...]:
    # (2i + 1 - n) / (2n) is an exact-negation ladder, so the centers of a
    # span centered on 0 are exactly mirrored; the grid symmetry guarantees
    # rely on this.
    return tuple(((2 * i + 1 - n) / (2 * n)) * span for i in range(n))


def evaluate_grid(scenario: Scenario, plane_distance_m: float, resolution: int, data_tag_id: str) -> BerGrid:
    """Evaluate the link budget for ``data_tag_id`` at every cell center.

    The grid spans the room footprint with ``resolution`` cells per axis,
    each sampled at its center (an open sampling of the field, not an
    average), on the plane ``plane_distance_m`` below the ceiling. All
    cells go through ``evaluate_points`` as one batch, so each cell is
    bit-identical to ``evaluate_link`` at its center.
    """
    scenario.tag_codes((data_tag_id,))
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 2:
        raise ParameterError(f"resolution must be an integer >= 2, got {resolution}")
    room = scenario.room
    z = room.plane_z(plane_distance_m)
    xs = _cell_centers(room.width_m, resolution)
    ys = _cell_centers(room.depth_m, resolution)
    cells = len(xs) * len(ys)
    points = np.column_stack((np.tile(xs, len(ys)), np.repeat(ys, len(xs)), np.full(cells, z)))
    return BerGrid(plane_distance_m=plane_distance_m, tag_id=data_tag_id, x_centers_m=xs, y_centers_m=ys,
                   columns=evaluate_points(scenario, points, data_tag_id))


def load_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document."""
    scenario, _ = load_scenario_with_defaults(text)
    return scenario


def load_scenario_file(path: str | Path) -> Scenario:
    """Read and parse a scenario document from disk."""
    return load_scenario(read_scenario_text(path))


def read_scenario_text(path: str | Path) -> str:
    """Text of a scenario document on disk, decoded as UTF-8.

    A file that is not UTF-8 raises ScenarioParseError naming the first
    byte that does not decode; OSError propagates.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"document is not UTF-8: byte 0x{exc.object[exc.start]:02x} at position {exc.start}"
            f" ({exc.reason})") from None


def _model_keys(model: type) -> tuple[tuple[str, object], ...]:
    return tuple((f.name, f.default) for f in fields(model) if f.init)


# (section, required, keys, allowed): each section's keys in document order
# with their defaults, MISSING marking a required key, and the set of them.
# Keys named after a model's fields take that model's defaults, so each
# default lives in one place; the models' own checks are the only physical
# constraints.
_SCHEMA = tuple((section, required, keys, frozenset(key for key, _ in keys)) for section, required, keys in (
    ("metadata", False, (("name", ""), ("description", ""))),
    ("room", True, _model_keys(Room)),
    ("luminaire", True, (("tag", MISSING), ("x_m", MISSING), ("y_m", MISSING), ("z_m", MISSING))
     + _model_keys(EmitterModel) + _model_keys(ModulationParams)),
    ("detector", True, _model_keys(DetectorModel)),
    ("noise", False, _model_keys(NoiseParams)),
))
_SECTIONS = frozenset(section for section, *_ in _SCHEMA)
# Keys holding text; every other key holds a number. Text defaults are
# descriptive, not physics, so they are not reported as applied.
_TEXT_KEYS = frozenset(("name", "description", "tag"))


# Collections a document may nest, the root included; PyYAML's recursive
# composer gives out at about 495 under Python's default recursion limit.
_MAX_DEPTH = 500
# What an open collection reads next: an item, a key, or the value of a
# merge key `<<` (which _MERGE also stands for in anchors).
_ITEM, _KEY, _MERGE = object(), object(), object()
# Immutable scalar values, which repeated scalars of a document may share.
_PLAIN = (str, int, float, bool, type(None))
# Plain scalars that read as float(text): an optional minus, ASCII digits,
# a point and ASCII digits (no exponent, '_', '+' or sexagesimal ':').
_DECIMAL = re.compile(r"-?[0-9]+\.[0-9]+")


class _DocumentLoader(CParser, SafeConstructor, Resolver):
    """A yaml loader that builds a document straight from libyaml's events.

    One pass over the events keeps a stack of the open collections and no
    node tree, so nesting costs no recursion. Scalars resolve and construct
    with PyYAML's Resolver and SafeConstructor. Anchors, aliases (a
    collection may hold itself), ``<<`` merges and explicit tags build what
    PyYAML's safe loader builds, except that a key given twice, directly or
    through a merge, is a ScenarioParseError naming it and its line, and so
    is nesting more than ``_MAX_DEPTH`` collections deep; a collection takes
    no tag but its own (no ``!!set``, ``!!omap`` or ``!!pairs``); and a
    mapping cannot merge a collection that encloses it.
    """

    def get_single_data(self):
        self.get_event()  # stream start
        data = None
        if not self.check_event(StreamEndEvent):
            start = self.get_event().start_mark  # document start
            data = self._document()
            self.get_event()  # document end
            if not self.check_event(StreamEndEvent):
                raise ComposerError("expected a single document in the stream", start,
                                    "but found another document", self.get_event().start_mark)
        return data

    def _document(self):
        get_event, scalar, anchors = self.get_event, self._scalar, {}
        memo = {}  # plain values by (tag, text, implicit, at_key): keys and numbers repeat
        # Per open collection: [container, _ITEM, _KEY, _MERGE or the key whose
        # value comes next, the pairs merged so far, the mark of the last key].
        # top is the innermost open one, None before the root opens.
        stack, top = [], None
        while True:
            event = get_event()
            kind = type(event)
            if kind is ScalarEvent:
                at_key = top is not None and top[1] is _KEY
                key = (event.tag, event.value, event.implicit, at_key)
                value = memo.get(key, memo)  # the memo itself marks a miss: no value is it
                if value is memo:
                    value = scalar(event, at_key)
                    if type(value) in _PLAIN:
                        memo[key] = value
                if event.anchor is not None:
                    self._anchor(anchors, event, value)
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                value, _, merged, _ = stack.pop()
                if merged:  # merged pairs come first
                    merged.update(value)
                    value.clear()
                    value.update(merged)
                top = stack[-1] if stack else None
            elif kind is AliasEvent:
                if event.anchor not in anchors:
                    raise ComposerError(None, None, f"found undefined alias {event.anchor!r}", event.start_mark)
                value = anchors[event.anchor]
                if value is _MERGE and (top is None or top[1] is not _KEY):
                    raise ConstructorError(None, None, "found a merge key where no key goes", event.start_mark)
            else:  # a collection opens
                if len(stack) == _MAX_DEPTH:
                    raise ScenarioParseError("document is nested too deeply")
                mapping = kind is MappingStartEvent
                own_tag = self.DEFAULT_MAPPING_TAG if mapping else self.DEFAULT_SEQUENCE_TAG
                if event.tag not in (None, "!", own_tag):
                    raise ConstructorError(None, None, f"a collection cannot take the tag {event.tag!r}",
                                           event.start_mark)
                value = {} if mapping else []
                if event.anchor is not None:
                    self._anchor(anchors, event, value)
                top = [value, _KEY if mapping else _ITEM, None, None]
                stack.append(top)
                continue
            if top is None:
                return value
            state = top[1]
            if state is _ITEM:
                top[0].append(value)
            elif state is _KEY:
                if isinstance(value, (list, dict)):
                    raise ConstructorError(None, None, "found unhashable key", event.start_mark)
                top[1], top[3] = value, event.start_mark
            elif state is _MERGE:
                top[1], top[2] = _KEY, self._merge(value, top[2] or {}, top[0], stack, top[3])
            elif state in top[0] or (top[2] and state in top[2]):
                raise ScenarioParseError(f"duplicate key {state!r} at line {top[3].line + 1}")
            else:
                top[0][state] = value
                top[1] = _KEY

    @staticmethod
    def _anchor(anchors: dict, event, value) -> None:
        if event.anchor in anchors:
            raise ComposerError(None, None, f"found duplicate anchor {event.anchor!r}", event.start_mark)
        anchors[event.anchor] = value

    def _scalar(self, event, at_key):
        tag = event.tag
        if tag is None and event.implicit[0] and _DECIMAL.fullmatch(event.value):
            # A plain decimal: YAML 1.1's float pattern holds it, float is the
            # first implicit resolver PyYAML tries for '-' and digits, and
            # construct_yaml_float returns float(text) for it.
            return float(event.value)
        if tag is None or tag == "!":
            tag = self.resolve(ScalarNode, event.value, event.implicit)
        if at_key and tag == "tag:yaml.org,2002:merge":
            return _MERGE
        if tag == self.DEFAULT_SCALAR_TAG or (at_key and tag == "tag:yaml.org,2002:value"):
            return event.value
        node = ScalarNode(tag, event.value, event.start_mark, event.end_mark)
        try:
            data = self.yaml_constructors.get(tag, self.yaml_constructors[None])(self, node)
            if isinstance(data, GeneratorType):
                list(data)  # a collection's tag on a scalar: the constructor raises
        except (IndexError, KeyError, AttributeError):
            # How PyYAML's constructors fail on some tagged scalars (`!!int ''`).
            raise ConstructorError(None, None, f"cannot read {event.value!r} as {tag}", event.start_mark) from None
        return data

    @staticmethod
    def _merge(value, merged: dict, mapping: dict, stack: list, mark) -> dict:
        # The pairs of a merge's value (a mapping, or a sequence of them, the
        # last one first) after those merged so far; no key may repeat.
        sources = value[::-1] if isinstance(value, list) else [value]
        for source in sources:
            if not isinstance(source, dict):
                raise ConstructorError(None, None, "expected a mapping or a list of mappings to merge", mark)
            if any(f[0] is source or f[0] is value for f in stack):
                raise ConstructorError(None, None, "cannot merge a collection that encloses the mapping", mark)
            for key, item in source.items():
                if key in merged or key in mapping:
                    raise ScenarioParseError(f"duplicate key {key!r} at line {mark.line + 1}")
                merged[key] = item
        return merged


def load_scenario_with_defaults(text: str) -> tuple[Scenario, tuple[str, ...]]:
    """Like load_scenario, also reporting which optional keys were defaulted."""
    try:
        doc = yaml.load(text, Loader=_DocumentLoader)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises ValueError for an integer too long to convert.
        raise ScenarioParseError(f"document is not valid YAML: {exc}") from exc
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
    """Three tags in a line at 16 cm pitch, centered under a 2 m ceiling (shipped ``l1.yaml``)."""
    return load_scenario_file(builtin_scenario_path("l1"))


def builtin_g1() -> Scenario:
    """Nine tags on a 3x3 grid at 16 cm pitch, centered under a 2 m ceiling (shipped ``g1.yaml``)."""
    return load_scenario_file(builtin_scenario_path("g1"))


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
    _reject_unknown(doc, _SECTIONS, "top level")
    values: dict = {}
    applied: list[str] = []
    for section, required, keys, allowed in _SCHEMA:
        if required and section not in doc:
            raise ScenarioParseError(f"{section}: missing required section")
        body = doc.get(section, {})
        if section == "luminaire":
            if not isinstance(body, list) or not body:
                raise ScenarioParseError("luminaire: expected a non-empty list of entries")
            values[section] = [_read_keys(entry, keys, allowed, f"luminaire[{i}]", applied)
                               for i, entry in enumerate(body)]
        else:
            values[section] = _read_keys(body, keys, allowed, section, applied)
    return values, applied


def _read_keys(mapping: object, keys: tuple[tuple[str, object], ...], allowed: frozenset, path: str,
               applied: list[str]) -> dict:
    if not isinstance(mapping, dict):
        raise ScenarioParseError(f"{path}: expected a mapping")
    _reject_unknown(mapping, allowed, path)
    values = {}
    for key, default in keys:
        value = mapping.get(key, MISSING)
        if value is MISSING:
            if default is MISSING:
                raise ScenarioParseError(f"{path}.{key}: missing required key")
            if key not in _TEXT_KEYS:
                applied.append(f"{path}.{key}")
            value = default
        elif key in _TEXT_KEYS:
            if not isinstance(value, str):
                raise ScenarioParseError(f"{path}.{key}: expected a string, got {value!r}")
        elif type(value) is not float:  # a float is kept as it is
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioParseError(f"{path}.{key}: expected a number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise ScenarioParseError(f"{path}.{key}: number too large for a float") from None
        values[key] = value
    return values


def _reject_unknown(mapping: dict, allowed: frozenset, path: str) -> None:
    if not mapping.keys() <= allowed:
        # The first unknown key in sorted order; YAML keys may mix types
        # (`1: x`), which plain sorting cannot compare.
        unknown = min((k for k in mapping if k not in allowed), key=str)
        raise ScenarioParseError(f"{path}: unknown key {unknown!r}")


def _build(prefix: str, model: type, *args, **kwargs):
    """Construct ``model``; its ParameterError becomes a validation error at ``prefix``."""
    try:
        return model(*args, **kwargs)
    except ParameterError as exc:
        raise ScenarioValidationError(f"{prefix}{exc}") from exc
