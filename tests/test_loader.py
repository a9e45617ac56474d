"""The libyaml-based document loader against PyYAML's pure-Python one.

``scenario._DocumentLoader`` scans and parses with libyaml and builds the
objects from its events, with PyYAML's scalar resolver and constructors. On
generated scenario documents,
and on documents broken by inserted characters and YAML fragments, it must
build the same objects as ``yaml.SafeLoader`` (with the same duplicate-key
rule), or both must raise. ``ledid validate`` on the same documents keeps
the exit-code contract.

The two scanners read four constructs differently (see the README); a
document holding one of them is checked only where both loaders succeed:

* a tab as separating white space (``a:\\tb``): libyaml accepts it,
  PyYAML's scanner rejects it;
* ``?`` inside a plain scalar in a flow collection (``{a: 1? 2}``): libyaml
  reads a scalar, PyYAML ends the scalar at the ``?``;
* a byte-order mark at the start of a later line: libyaml skips it (the
  line's content then starts one column in), PyYAML reads it as content;
* a ``:`` followed directly by ``,``, ``]`` or ``}`` in a flow collection
  (``{x_m:, 2.0}``): libyaml rejects it, PyYAML reads ``x_m: null``.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_documents import workload_documents
from ledid import builtin_scenario_path, scenario
from ledid.cli import main
from ledid.errors import ScenarioParseError
from ledid.scenario import _MAX_DEPTH, _DocumentLoader

NUMBERS = ("2.0", "2", "0.5", "1.0e-4", "1e3", "1.0e+300", "1_000", "0x1F", "0o17", "017", "1:30",
           ".inf", "-.inf", ".nan", "~", "true", "'2.0'", "2001-12-14")
TAGS = ("a", "a", "b", "b", "a-1", "'q'", "\"x.y\"", "1", "null", "é")
FRAGMENTS = ("\x00", "\x01", "\x1b", "\x7f", "\x85", "\u2028", "\ufeff", "\t", "\r\n", "\r", "\n",
             "[", "]", "{", "}", ",", ": ", "- ", "? ", "#", "'", "\"", "\\", "  ", "\n  ",
             "&x ", "*x", "&x [*x]", "<<: *x\n", "<<: {x_m: 1}", "power_w: 2\n", "tag: a\n",
             "1_000", "0x1F", "1:30", ".inf", "-.inf", ".nan", "!!str ", "!!int ", "!!float ",
             "%YAML 1.1\n", "---\n", "...\n", "|\n", ">-\n", "é", "\U0001F600")


class PythonLoader(yaml.SafeLoader):
    """The oracle: PyYAML's pure-Python safe loader, duplicate keys rejected likewise."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(node.value):
            raise ScenarioParseError("duplicate key")
        return mapping

    def construct_object(self, node, deep=False):
        # PyYAML's constructors fail with these on some tagged scalars (`!!int ''`),
        # which the loader under test reports as a YAML error: both raise.
        try:
            return super().construct_object(node, deep)
        except (IndexError, KeyError, AttributeError) as exc:
            raise yaml.constructor.ConstructorError(None, None, repr(exc), node.start_mark) from None


def load(loader, text):
    """repr of what ``loader`` builds from ``text``, or None if it raises."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError, RecursionError, ScenarioParseError):
        return None


def dialect_dependent(text):
    return "\t" in text or "?" in text or "\ufeff" in text[1:] or re.search(r":[,\]}]", text) is not None


@st.composite
def scenario_documents(draw):
    """A scenario document in block or flow style, possibly off-schema."""

    def mapping(pairs, indent, lead):
        # lead goes before the first key of a block mapping: a line break
        # and the indent, or a space after a list entry's "-".
        if draw(st.booleans()):
            return " {" + ", ".join(f"{key}: {value}" for key, value in pairs) + "}"
        return lead + f"\n{indent}".join(f"{key}: {value}" for key, value in pairs)

    def number(default):
        return draw(st.sampled_from(NUMBERS)) if draw(st.integers(0, 15)) == 0 else default

    parts = []
    if draw(st.booleans()):
        parts.append("metadata:" + mapping([("name", draw(st.sampled_from(TAGS)))], "  ", "\n  "))
    room = [(key, number("2.0")) for key in ("width_m", "depth_m", "height_m")]
    parts.append("room:" + mapping(room, "  ", "\n  "))
    entries = []
    anchored = draw(st.booleans())
    for i in range(draw(st.integers(1, 3))):
        pairs = [("tag", draw(st.sampled_from(TAGS))), ("x_m", number(f"{0.1 * i:.1f}")),
                 ("y_m", number("0.0")), ("z_m", number("2.0")), ("power_w", number("1.0")),
                 ("semi_angle_deg", number("20.0"))]
        if draw(st.booleans()):
            pairs.append(("mod_index", number("1.0")))
        if draw(st.integers(0, 9)) == 0:
            pairs.append(draw(st.sampled_from(pairs)))  # a key given twice
        if i > 0 and draw(st.integers(0, 3)) == 0:
            pairs.append(("<<", "*lamp"))  # merge the first entry
        anchor = "&lamp" if i == 0 and anchored else ""
        body = mapping(pairs, "    ", "\n    " if anchor else " ")
        entries.append(f"\n  -{' ' + anchor if anchor else ''}{body}")
    parts.append("luminaire:" + "".join(entries))
    detector = [("area_m2", number("1.0e-4")), ("fov_deg", number("60.0")), ("gain", number("1.3"))]
    parts.append("detector:" + mapping(detector, "  ", "\n  "))
    if draw(st.booleans()):
        parts.append("noise:" + mapping([("i2", number("0.56")), ("isi_a2", number("0.0"))], "  ", "\n  "))
    return "\n".join(draw(st.permutations(parts))) + "\n"


@st.composite
def mutated_documents(draw):
    text = draw(scenario_documents())
    inserts = draw(st.lists(st.tuples(st.integers(0, len(text)),
                                      st.one_of(st.sampled_from(FRAGMENTS),
                                                st.characters(blacklist_categories=("Cs",)))),
                            max_size=4))
    for position, fragment in sorted(inserts, reverse=True):
        text = text[:position] + fragment + text[position:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_loader_matches_the_python_safe_loader(text):
    ours, reference = load(_DocumentLoader, text), load(PythonLoader, text)
    if dialect_dependent(text) and None in (ours, reference):
        return
    assert ours == reference


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_validate_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.yaml"
        path.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("value", ["{x_m:, 2.0}", "{x_m:}", "[x_m:, 2]"])
def test_empty_value_before_a_flow_indicator_is_a_parse_error(value, tmp_path, capsys):
    # PyYAML's Python scanner would read x_m: null; libyaml rejects the ':'.
    assert load(PythonLoader, f"a: {value}") is not None
    path = tmp_path / "doc.yaml"
    path.write_text(f"room: {{width_m: 2.0, depth_m: 2.0, height_m: 2.0}}\nextra: {value}\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: document is not valid YAML")
    assert captured.err.count("error:") == 1 and "Traceback" not in captured.err


# Documents whose objects both loaders build alike, anchors and merges included.
SAME_OBJECTS = {
    "self-sequence": "&x [*x]",
    "self-mapping": "&x {a: *x}",
    "merged-alias": "a: &x {b: 1, c: 2}\nd: {<<: *x, e: 3}\n",
    "merge-sequence": "x: &x {a: 1}\ny: &y {b: 2}\nz: {c: 3, <<: [*x, *y, {d: 4}]}\n",
    "merge-of-merged": "x: &x {a: 1}\ny: &y {<<: *x, b: 2}\nz: {<<: *y}\n",
    "date": "2001-12-14",
    "empty": "",
}
# Documents that both loaders reject.
BOTH_FAIL = {
    "merged-key-given-again": "x: &x {a: 1}\ny: {<<: *x, a: 2}\n",
    "merged-key-given-before": "x: &x {a: 1}\ny: {a: 2, <<: *x}\n",
    "key-in-two-merges": "x: &x {a: 1}\ny: {<<: [*x, {a: 2}]}\n",
    "undefined-alias": "a: *x\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "unhashable-key": "? [a]\n: 1\n",
    "str-on-a-collection": "!!str [a]\n",
    "int-on-a-float": "!!int 1.5\n",
    "merge-of-a-scalar": "a: {<<: 1}\n",
    "merge-key-as-a-value": "{&m <<: {x: 1}, y: *m}\n",
    "map-tag-on-a-scalar": "a: !!map x\n",
    "seq-tag-on-a-scalar": "a: !!seq x\n",
}


@contextlib.contextmanager
def recursion_limit(limit):
    # PyYAML's Python composer recurses twice per nesting level.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("text", SAME_OBJECTS.values(), ids=SAME_OBJECTS.keys())
def test_fixed_documents_build_what_the_python_loader_builds(text):
    ours = load(_DocumentLoader, text)
    assert ours is not None
    assert ours == load(PythonLoader, text)


@pytest.mark.parametrize("text", BOTH_FAIL.values(), ids=BOTH_FAIL.keys())
def test_fixed_documents_both_loaders_reject(text):
    assert load(PythonLoader, text) is None
    with pytest.raises((yaml.YAMLError, ValueError, ScenarioParseError)):
        yaml.load(text, Loader=_DocumentLoader)


@pytest.mark.parametrize("text, message", [
    (BOTH_FAIL["merge-key-as-a-value"], "found a merge key where no key goes"),
    (BOTH_FAIL["map-tag-on-a-scalar"], "expected a mapping node, but found scalar"),
    (BOTH_FAIL["seq-tag-on-a-scalar"], "expected a sequence node, but found scalar"),
    # PyYAML builds {'a': {'b': {'b': {...}}}} here; see the README.
    ("a: &x {b: {<<: *x}}\n", "cannot merge a collection that encloses the mapping"),
], ids=["merge-key-as-a-value", "map-tag-on-a-scalar", "seq-tag-on-a-scalar", "enclosing-merge"])
def test_a_rejected_construct_is_named(text, message):
    with pytest.raises(yaml.constructor.ConstructorError, match=re.escape(message)):
        yaml.load(text, Loader=_DocumentLoader)


def test_pyyaml_merges_an_enclosing_collection():
    assert load(PythonLoader, "a: &x {b: {<<: *x}}\n") == "{'a': {'b': {'b': {...}}}}"


def test_a_merged_key_given_again_is_named():
    with pytest.raises(ScenarioParseError, match="duplicate key 'a' at line 2"):
        yaml.load(BOTH_FAIL["merged-key-given-again"], Loader=_DocumentLoader)


@pytest.mark.parametrize("text", ["a: !!float\n", "a: !!int ''\n", "a: !!bool ''\n", "a: !!timestamp x\n"],
                         ids=["float", "int", "bool", "timestamp"])
def test_a_tagged_scalar_the_constructors_cannot_read_is_a_yaml_error(text, tmp_path, capsys):
    # PyYAML's constructors raise IndexError, KeyError or AttributeError here.
    with pytest.raises(yaml.YAMLError, match="cannot read"):
        yaml.load(text, Loader=_DocumentLoader)
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: document is not valid YAML") and "Traceback" not in err


@pytest.mark.parametrize("depth", [_MAX_DEPTH, _MAX_DEPTH + 1], ids=["at-the-limit", "past-the-limit"])
def test_nesting_limit(depth):
    # The root mapping and depth - 1 sequences: depth nested collections.
    text = "a: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"
    with recursion_limit(4 * depth + 1000):
        reference = load(PythonLoader, text)
    assert reference is not None
    if depth <= _MAX_DEPTH:
        assert load(_DocumentLoader, text) == reference
    else:
        with pytest.raises(ScenarioParseError, match="nested too deeply"):
            yaml.load(text, Loader=_DocumentLoader)


VALIDATE_L1 = """name=L1
room_m=2x2x2
luminaires=3
tags=outer-left,inner,outer-right
lambertian_order[semi_angle_deg=20]=11.1434
defaults_applied=luminaire[0].mod_index,luminaire[0].baseband_power,luminaire[1].mod_index,\
luminaire[1].baseband_power,luminaire[2].mod_index,luminaire[2].baseband_power,detector.responsivity_a_per_w,\
detector.bandwidth_hz,noise.background_current_a,noise.i2,noise.thermal_a2,noise.isi_a2
"""


def validate_stdout(path, capsys):
    assert main(["validate", str(path)]) == 0
    return capsys.readouterr().out


def test_validate_prints_the_pinned_l1_report(capsys):
    assert validate_stdout(builtin_scenario_path("l1"), capsys) == VALIDATE_L1


@pytest.mark.parametrize("seed", [1, 2])
def test_validate_prints_what_the_python_loader_gives(seed, tmp_path, capsys, monkeypatch):
    paths = [builtin_scenario_path("l1"), builtin_scenario_path("g1")]
    for key, text in workload_documents(seed).items():
        paths.append(tmp_path / f"{key}.yaml")
        paths[-1].write_text(text, encoding="utf-8")
    ours = [validate_stdout(path, capsys) for path in paths]
    monkeypatch.setattr(scenario, "_DocumentLoader", PythonLoader)
    assert ours == [validate_stdout(path, capsys) for path in paths]
