"""Unit tests for the JSON file formats and payload builders."""

from __future__ import annotations

import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from factories import market_payload, seeded_market, two_group_school
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import record_instance_from_payload, record_multi_from_payload

from reserve_match import cli, files
from reserve_match.baseline import sequential_baseline
from reserve_match.files import (
    INSTANCE_SCHEMA,
    MULTI_SCHEMA,
    SELECTED_SCHEMA,
    TARGETS_SCHEMA,
    InstanceFormatError,
    _error,
    _supported,
    _validated,
    baseline_result_payload,
    choice_result_payload,
    dump_json,
    fraction_str,
    gda_result_payload,
    instance_from_payload,
    instance_to_payload,
    load_instance,
    load_multi,
    load_selected,
    load_targets,
    multi_from_payload,
    write_json,
    write_text,
)
from reserve_match.flow import choice_flow
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.generator import generate_instance
from reserve_match.model import StudentRecord


def instance_payload() -> dict:
    return {
        "capacity": 2,
        "types": ["t1"],
        "quotas": [{"type": "t1", "rank": 1, "quota": 1}],
        "students": [
            {"id": "s1", "types": ["t1"]},
            {"id": "s2", "types": ["t1"]},
            {"id": "s3", "types": []},
            {"id": "s4", "types": []},
        ],
        "priority": ["s4", "s3", "s2", "s1"],
    }


def multi_payload() -> dict:
    return {
        "types": ["t1"],
        "students": [{"id": "a", "types": ["t1"]}, {"id": "b", "types": []}],
        "schools": [
            {
                "id": "X",
                "capacity": 1,
                "quotas": [{"type": "t1", "rank": 1, "quota": 1}],
                "priority": ["a", "b"],
            }
        ],
        "preferences": {"a": ["X"]},
    }


def test_instance_payload_round_trip():
    instance = instance_from_payload(instance_payload())
    assert instance.capacity == 2
    assert instance.quotas == {("t1", 1): 1}
    assert instance_to_payload(instance) == instance_payload()


def test_instance_payload_rejects_schema_violations():
    bad = instance_payload()
    del bad["priority"]
    with pytest.raises(InstanceFormatError, match="priority"):
        instance_from_payload(bad)
    bad = instance_payload()
    bad["capacity"] = -2
    with pytest.raises(InstanceFormatError, match="capacity"):
        instance_from_payload(bad)
    bad = instance_payload()
    bad["quotas"][0]["rank"] = 0
    with pytest.raises(InstanceFormatError, match="rank"):
        instance_from_payload(bad)
    bad = instance_payload()
    bad["extra"] = True
    with pytest.raises(InstanceFormatError, match="extra"):
        instance_from_payload(bad)


def test_instance_payload_rejects_duplicate_quota_entries():
    bad = instance_payload()
    bad["quotas"].append({"type": "t1", "rank": 1, "quota": 2})
    with pytest.raises(InstanceFormatError, match="duplicate quota"):
        instance_from_payload(bad)


def test_instance_payload_wraps_model_errors():
    bad = instance_payload()
    bad["students"][0]["id"] = "s2"
    with pytest.raises(InstanceFormatError, match="duplicate"):
        instance_from_payload(bad)


def test_load_instance_io_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance(str(missing))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="not JSON"):
        load_instance(str(garbled))


def test_load_targets(tmp_path):
    instance = two_group_school()
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"t1": 1, "none": 1}), encoding="utf-8")
    assert load_targets(str(path), instance) == {("t1",): 1, (): 1}

    path.write_text(json.dumps({"t9": 1}), encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="unknown group"):
        load_targets(str(path), instance)

    path.write_text(json.dumps({"t1": -1}), encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="bad targets"):
        load_targets(str(path), instance)


def test_load_selected(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(
        json.dumps({"selected": ["s4", "s2"], "alpha": "1/2"}), encoding="utf-8"
    )
    assert load_selected(str(path)) == ["s4", "s2"]
    path.write_text(json.dumps({"selected": ["s4", "s4"]}), encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="repeats"):
        load_selected(str(path))
    path.write_text(json.dumps({"alpha": "1/2"}), encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="selected"):
        load_selected(str(path))


def test_multi_payload_round_trip_and_errors():
    payload = multi_payload()
    multi = multi_from_payload(payload)
    assert multi.instances["X"].quotas == {("t1", 1): 1}
    bad = dict(payload)
    bad["preferences"] = {"a": ["Z"]}
    with pytest.raises(InstanceFormatError, match="unknown schools"):
        multi_from_payload(bad)


def test_load_multi(tmp_path):
    path = tmp_path / "multi.json"
    path.write_text(
        json.dumps(
            {
                "types": [],
                "students": [],
                "schools": [],
                "preferences": {},
            }
        ),
        encoding="utf-8",
    )
    multi = load_multi(str(path))
    assert multi.schools == ()


def test_fraction_str_exact():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(4, 8)) == "1/2"


def test_choice_result_payload_fields():
    instance = two_group_school()
    payload = choice_result_payload(instance, choice_flow(instance), "flow")
    assert payload == {
        "alpha": "1/2",
        "targets": {"none": 1, "t1": 1},
        "selected": ["s4", "s2"],
        "per_group": {"none": 1, "t1": 1},
        "signature": [1, 1],
        "backend": "flow",
    }


def test_baseline_result_payload_fields():
    instance = two_group_school()
    payload = baseline_result_payload(instance, sequential_baseline(instance))
    assert payload["backend"] == "baseline"
    assert payload["targets"] == {}
    assert payload["selected"] == ["s4", "s2"]
    assert payload["alpha"] == "1/2"


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'
    assert dump_json({"a": 1, "b": 2}) == dump_json({"b": 2, "a": 1})


# text with non-ASCII letters, control characters, quotes and backslashes
_JSON_TEXT = st.text(
    alphabet=st.sampled_from('ab"\\/\x00\x1f\n\t\x7féß€😀 '), max_size=6
) | st.text(max_size=4)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _JSON_TEXT
)


@st.composite
def _student_arrays(draw):
    """Lists of objects shaped like a students array: a string id, a list of
    strings that items may share (as instance_to_payload shares one per
    group) and, on some items, scalar members of mixed types."""
    pool = draw(st.lists(st.lists(_JSON_TEXT, max_size=3), min_size=1, max_size=3))
    extra = st.fixed_dictionaries(
        {}, optional={"rank": _JSON_SCALARS, "name": _JSON_SCALARS, "i": _JSON_SCALARS}
    )
    return [
        {"id": draw(_JSON_TEXT), "types": draw(st.sampled_from(pool)), **draw(extra)}
        for _ in range(draw(st.integers(0, 5)))
    ]


_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _student_arrays(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(_JSON_TEXT, max_size=5)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writes")


def assert_write_json_writes(value, expected: str, directory: Path) -> None:
    """write_json writes expected's bytes to a file and to stdout, with
    flat arrays cut at the real part size and at sizes small enough to cut
    every array of the drawn values."""
    path = directory / "out.json"
    for chunk, strings in ((files._CHUNK, files._STRING_RUN), (1, 1), (2, 2)):
        with mock.patch.multiple(files, _CHUNK=chunk, _STRING_RUN=strings):
            write_json(value, str(path))
            with redirect_stdout(io.StringIO()) as console:
                write_json(value, None)
        assert path.read_bytes() == expected.encode("utf-8")
        assert console.getvalue() == expected


@settings(max_examples=500, deadline=None)
@given(_JSON_VALUES)
def test_dump_json_matches_the_standard_indented_encoder(out_dir, value):
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert dump_json(value) == expected
    assert_write_json_writes(value, expected, out_dir)


def test_dump_json_matches_the_standard_encoder_on_edge_values(out_dir):
    values = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]],
        ("x", ("y", [])), ["é", "\x00\"\\", "😀"], [1, "a", None, True, 2.5],
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        {"b": 1, "a": [2, 1], "é": {"z": None}}, {1: "int", 2.5: "float"},
        {True: 1}, {None: 0}, "", 0, False,
    ]
    for value in values:
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert dump_json(value) == expected
        assert_write_json_writes(value, expected, out_dir)
    shared = ["t1", "t2"]
    values = [
        # one list object at two depths, and shared by rows
        [shared, {"types": shared}, [{"id": "a", "types": shared}] * 2],
        # rows of one size whose keys differ, or that hold no keys
        [{"id": "a", "types": []}, {"id": "b", "rank": 1}],
        [{"a": 1}, {}], [{}, {}], [{"a": 1}, {"a": 2}, "x"],
        # rows with non-string keys, or with nested rows
        [{1: "x", 2: "y"}, {1: "z", 2: "w"}],
        [{"k": [{"id": "a"}, {"id": "b"}]}, {"k": []}],
        [{"%s": "%d", "%%": ["%"]}] * 2,
        # tuples where arrays go, as a gda round trace holds them
        {"pools": {"c1": ("a", "b"), "c2": ()}, "round": 1},
        [{"pools": {"c1": ("a",)}, "selected": {"c1": ()}}] * 2,
        [{"pools": {"c1": 1}, "proposals": {"c1": ("a",)}, "rejected": {}}] * 2,
        (("x",), {"k": ((), ("y", "z"))}),
        # arrays around and past the part size, of strings, rows and mixed
        # items, alone and inside objects written member by member
        [f"s{i}" for i in range(files._CHUNK)],
        tuple(f"s{i}" for i in range(files._CHUNK + 1)),
        [f"s{i}" for i in range(files._STRING_RUN)],
        tuple(f"s{i}" for i in range(files._STRING_RUN + 1)),
        # flat members that hold more than the part size in all, as a
        # solve result's selected array or a round's proposals do
        {"alpha": "1/2", "selected": [f"s{i}" for i in range(files._CHUNK + 1)]},
        {f"c{j}": tuple(f"s{i}" for i in range(j * 100)) for j in range(4)},
        {"a": [1] * files._CHUNK, "b": ["x"], "c": {}},
        {"students": [{"id": f"s{i}", "types": shared} for i in range(1100)],
         "quotas": [{"type": "t1", "rank": 1, "quota": 2}]},
        {"mixed": [i if i % 3 else [i, {"i": i}] for i in range(2 * files._CHUNK)]},
        [{"round": i, "pools": {"c": tuple(map(str, range(i)))}} for i in range(3)],
    ]
    for value in values:
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert dump_json(value) == expected
        assert_write_json_writes(value, expected, out_dir)
    for write in (dump_json, lambda value: write_json(value, str(out_dir / "bad"))):
        with pytest.raises(TypeError, match="keys must be str"):
            write({(1, 2): 3})
        with pytest.raises(TypeError, match="keys must be str"):
            write({(1, 2): [3]})
        with pytest.raises(TypeError, match="keys must be str"):
            write([{(1, 2): 3}, {(1, 2): 4}])
        with pytest.raises(TypeError, match="not JSON serializable"):
            write([object()])


def test_write_text_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "out.json"
    write_text("payload\n", str(out))
    assert out.read_text(encoding="utf-8") == "payload\n"
    write_text("to-console\n", None)
    assert capsys.readouterr().out == "to-console\n"
    write_json({"a": [1]}, str(out))
    assert out.read_text(encoding="utf-8") == dump_json({"a": [1]})
    write_json({"a": [1]}, None)
    assert capsys.readouterr().out == dump_json({"a": [1]})
    # a path that cannot be opened, and (where the system has one) a device
    # that refuses the bytes once they are flushed
    unwritable = [str(tmp_path / "missing" / "out.json"), str(tmp_path)]
    if os.path.exists("/dev/full"):
        unwritable.append("/dev/full")
    for path in unwritable:
        with pytest.raises(InstanceFormatError, match="cannot write"):
            write_text("payload\n", path)
        with pytest.raises(InstanceFormatError, match="cannot write"):
            write_json({"selected": ["s1"] * 2000}, path)


def _gda_payload() -> dict:
    return gda_result_payload(run_gda(seeded_market(20000, 1)))


def _generated_payload() -> dict:
    return instance_to_payload(generate_instance(20000, 3, 2, 7))


def _solve_payload() -> dict:
    instance = generate_instance(20000, 3, 2, 7)
    return choice_result_payload(instance, choice_flow(instance))


# the gda trace is taken at 20,000 students, where round 1's proposals list
# every student: at 2,000 it is about 214 KB, and the writer's own buffers
# (about 35 KB) would be a large share of it; a solve result is one object
# whose only large member is the selected array
@pytest.mark.parametrize("build", [_gda_payload, _generated_payload, _solve_payload])
def test_write_json_never_holds_the_whole_text(tmp_path, build):
    payload = build()
    expected = dump_json(payload).encode("utf-8")
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        write_json(payload, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == expected
    # building the text first holds it at least twice (text, then bytes)
    assert peak <= len(expected) // 4
    if build is _gda_payload:
        # the trace gives pool sizes and no held sets
        assert len(expected) < 3_000_000


def test_single_fault_messages_keep_the_jsonschema_templates():
    def message(payload, schema=INSTANCE_SCHEMA, what="instance file"):
        with pytest.raises(InstanceFormatError) as err:
            _validated(payload, schema, what)
        return str(err.value)

    bad = instance_payload()
    del bad["priority"]
    assert message(bad) == (
        "bad instance file: 'priority' is a required property (at document root)"
    )
    bad = instance_payload()
    bad["zz"] = 1
    bad["extra"] = True
    assert message(bad) == (
        "bad instance file: Additional properties are not allowed "
        "('extra', 'zz' were unexpected) (at document root)"
    )
    bad = instance_payload()
    bad["capacity"] = -2
    assert message(bad) == (
        "bad instance file: -2 is less than the minimum of 0 (at capacity)"
    )
    bad = instance_payload()
    bad["students"] = {"x": 1}
    assert message(bad) == (
        "bad instance file: {'x': 1} is not of type 'array' (at students)"
    )
    bad = instance_payload()
    bad["students"][1]["types"][0] = 7
    assert message(bad) == (
        "bad instance file: 7 is not of type 'string' (at students/1/types/0)"
    )
    assert message({"t1": 1, "none": -1}, TARGETS_SCHEMA, "targets file") == (
        "bad targets file: -1 is less than the minimum of 0 (at none)"
    )


@pytest.mark.parametrize(
    "value, accepted",
    [
        (2, True),
        (2.0, True),
        (True, False),
        (False, False),
        (2.5, False),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
        ("2", False),
        (None, False),
    ],
)
def test_integer_rule(value, accepted):
    payload = instance_payload()
    payload["quotas"][0]["quota"] = value
    if accepted:
        assert _validated(payload, INSTANCE_SCHEMA, "instance file") is payload
    else:
        with pytest.raises(InstanceFormatError, match="is not of type 'integer'"):
            _validated(payload, INSTANCE_SCHEMA, "instance file")


def test_integral_floats_are_read_as_ints(tmp_path):
    payload = instance_payload()
    payload["capacity"] = 2.0
    payload["quotas"][0]["rank"] = 1.0
    payload["quotas"][0]["quota"] = 1.0
    instance = instance_from_payload(payload)
    assert instance_to_payload(instance) == instance_payload()
    assert all(
        type(rank) is int and type(count) is int
        for (_t, rank), count in instance.quotas.items()
    )
    multi = multi_payload()
    multi["schools"][0]["capacity"] = 1.0
    assert type(multi_from_payload(multi).schools[0].capacity) is int
    path = tmp_path / "targets.json"
    path.write_text('{"t1": 1.0, "none": 1}', encoding="utf-8")
    targets = load_targets(str(path), two_group_school())
    assert targets == {("t1",): 1, (): 1}
    assert all(type(n) is int for n in targets.values())


def test_compile_rejects_keywords_it_does_not_check():
    with pytest.raises(ValueError, match="unsupported"):
        _supported({"type": "string", "maxLength": 3})
    with pytest.raises(ValueError, match="unsupported"):
        _supported({"minimum": 0, "type": "integer"})
    with pytest.raises(ValueError, match="unsupported"):
        _supported({"type": "number"})


def test_published_schemas_hold_only_what_the_walk_checks():
    for schema in (INSTANCE_SCHEMA, MULTI_SCHEMA, TARGETS_SCHEMA, SELECTED_SCHEMA):
        _supported(schema)
    refused = [
        {"type": "array", "items": {"type": "string", "maxLength": 3}},
        {"type": "object", "properties": {"n": {"minimum": 0, "type": "integer"}}},
        {"type": "object", "additionalProperties": {"type": "number"}},
        # the walk tests a closed object before its required keys
        {"type": "object", "required": ["n"], "additionalProperties": False},
        {
            "type": "array",
            "items": {"type": "object", "required": [], "additionalProperties": False},
        },
    ]
    for schema in refused:
        with pytest.raises(ValueError, match="unsupported"):
            _supported(schema)


def test_preferences_of_a_market_are_checked_in_one_scan(monkeypatch):
    payload = market_payload(seeded_market(2000, 1))
    preferences = payload["preferences"]
    schema = MULTI_SCHEMA["properties"]["preferences"]
    scans = []
    scan = files._all_strings

    def counted(values):
        scans.append(None)
        return scan(values)

    monkeypatch.setattr(files, "_all_strings", counted)
    assert _error(preferences, schema) is None
    # one scan over every list, not one per student
    assert len(scans) == 1
    sid = sorted(preferences)[7]
    preferences[sid] = preferences[sid][:1] + [3]
    with pytest.raises(InstanceFormatError) as err:
        _validated(payload, MULTI_SCHEMA, "multi-school file")
    assert str(err.value) == (
        f"bad multi-school file: 3 is not of type 'string' "
        f"(at preferences/{sid}/1)"
    )


def test_cli_import_does_not_load_jsonschema():
    code = "import reserve_match.cli, sys; assert 'jsonschema' not in sys.modules"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# Differential fuzz test: the schema walk against jsonschema, the
# reference implementation of the schemas, on mutated valid payloads.

def ranked_multi_payload() -> dict:
    """A multi-school payload with several preference lists, so that two
    faults can land in different lists of the one map."""
    payload = multi_payload()
    payload["students"].append({"id": "c", "types": []})
    payload["schools"].append(
        {"id": "Y", "capacity": 1, "quotas": [], "priority": ["c", "b", "a"]}
    )
    payload["schools"][0]["priority"].append("c")
    payload["preferences"] = {"a": ["X", "Y"], "b": ["Y"], "c": ["Y", "X"]}
    return payload


DOCUMENTS = {
    "instance file": (instance_payload, INSTANCE_SCHEMA),
    "multi-school file": (multi_payload, MULTI_SCHEMA),
    "ranked multi-school file": (ranked_multi_payload, MULTI_SCHEMA),
    "targets file": (lambda: {"t1": 1, "none": 0}, TARGETS_SCHEMA),
    "result file": (
        lambda: {"selected": ["s4", "s2"], "alpha": "1/2", "per_group": {"t1": 1}},
        SELECTED_SCHEMA,
    ),
}

REPLACEMENTS = [
    "x", "", None, True, False, -1, 0, 3, 2.0, -2.0, 1.5,
    math.nan, math.inf, -math.inf, [], ["x"], [1], {}, {"x": 1},
]


def _jsonschema_text(payload, schema, what):
    """The error text the jsonschema-based loader gave, or None if valid."""
    jsonschema = pytest.importorskip("jsonschema")
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "document root"
        return f"bad {what}: {err.message} (at {where})"
    return None


def _locations(value, path=()):
    """Every (path, value) pair in a JSON value, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _locations(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _locations(item, path + (index,))


def _mutate(data, payload, within=()):
    """Drop or add a key, or swap one value (leaf or container) for another,
    at a site drawn from those under the path prefix within."""
    sites = [
        (path, target)
        for path, target in _locations(payload)
        if path[: len(within)] == within
    ]
    path, target = data.draw(st.sampled_from(sites))
    kinds = ["swap"]
    if isinstance(target, dict):
        kinds += ["add", "drop"] if target else ["add"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "add":
        key = data.draw(st.sampled_from(["extra", "zz", "id", "t1"]))
        value = data.draw(st.sampled_from(REPLACEMENTS + ["s1", ["s1"]]))
        target[key] = copy.deepcopy(value)
    else:
        new = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
        if not path:
            return new
        parent = payload
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = new
    return payload


def _steered_areas(payload):
    """The keys of a non-empty students array and preferences map."""
    if not isinstance(payload, dict):
        return []
    kinds = {"students": list, "preferences": dict}
    return [
        key for key, kind in kinds.items()
        if isinstance(payload.get(key), kind) and payload[key]
    ]


@settings(max_examples=400, deadline=None)
@given(
    what=st.sampled_from(sorted(DOCUMENTS)),
    mutations=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_validators_agree_with_jsonschema(what, mutations, data):
    make, schema = DOCUMENTS[what]
    payload = make()
    # half the mutations land inside one students item or the preferences
    # map, where the fast paths for arrays of closed objects and for maps of
    # arrays must hand every fault to the full check
    for _ in range(mutations):
        within = ()
        areas = _steered_areas(payload)
        if areas and data.draw(st.booleans()):
            within = (data.draw(st.sampled_from(areas)),)
            if within == ("students",):
                within += (data.draw(st.integers(0, len(payload["students"]) - 1)),)
        payload = _mutate(data, payload, within)
    expected = _jsonschema_text(payload, schema, what)
    try:
        _validated(payload, schema, what)
        got = None
    except InstanceFormatError as err:
        got = str(err)
    assert (got is None) == (expected is None)
    assert got == expected


# Differential test: the columnar loaders against the record-based ones they
# replaced (tests/reference_search.py), on valid payloads and on payloads
# with one or two faults, most of them schema-valid.

TYPE_NAMES = ["t1", "t2", "t3"]


def _draw_quotas(draw, types):
    if not types:
        return []
    entries = draw(
        st.lists(
            st.tuples(st.sampled_from(types), st.integers(1, 3), st.integers(0, 3)),
            unique_by=lambda e: e[:2],
            max_size=4,
        )
    )
    return [{"type": t, "rank": r, "quota": q} for t, r, q in entries]


@st.composite
def _student_list(draw):
    types = draw(st.lists(st.sampled_from(TYPE_NAMES), unique=True, max_size=3))
    n = draw(st.integers(0, 6))
    # types lists may be unsorted and repeat a name; they name one set
    held = st.lists(st.sampled_from(types), max_size=3) if types else st.just([])
    students = [{"id": f"s{i}", "types": draw(held)} for i in range(n)]
    return types, students


@st.composite
def _instance_payloads(draw):
    types, students = draw(_student_list())
    return {
        "capacity": draw(st.integers(0, 6)),
        "types": types,
        "quotas": _draw_quotas(draw, types),
        "students": students,
        "priority": draw(st.permutations([s["id"] for s in students])),
    }


@st.composite
def _multi_payloads(draw):
    types, students = draw(_student_list())
    ids = [s["id"] for s in students]
    names = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    schools = [
        {
            "id": cid,
            "capacity": draw(st.integers(0, 4)),
            "quotas": _draw_quotas(draw, types),
            "priority": draw(st.permutations(ids)),
        }
        for cid in names
    ]
    ranked = st.lists(st.sampled_from(names), unique=True, max_size=len(names))
    preferences = {sid: draw(ranked) for sid in ids if draw(st.booleans())}
    return {
        "types": types,
        "students": students,
        "schools": schools,
        "preferences": preferences,
    }


def _break(data, payload, school):
    """Apply one fault. school is the dict holding priority and quotas: the
    payload itself, or one school of a multi-school payload."""
    students = payload["students"]
    priority, quotas = school["priority"], school["quotas"]
    kinds = ["extra id", "t0 listed", "rank too large", "unknown quota type",
             "rank zero", "negative quota"]
    if students:
        kinds += ["unknown type", "t0 held"]
    if len(students) >= 2:
        kinds += ["duplicate id"]
    if priority:
        kinds += ["missing id", "replaced id"]
    if len(priority) >= 2:
        kinds += ["repeated id"]
    if quotas:
        kinds += ["duplicate quota"]
    kind = data.draw(st.sampled_from(kinds))
    pick = st.integers(0, max(len(students) - 1, 0))
    if kind == "duplicate id":
        i, j = data.draw(pick), data.draw(pick)
        students[j]["id"] = students[i]["id"] if i != j else students[j - 1]["id"]
    elif kind == "missing id":
        del priority[data.draw(st.integers(0, len(priority) - 1))]
    elif kind == "replaced id":
        priority[data.draw(st.integers(0, len(priority) - 1))] = "ghost"
    elif kind == "extra id":
        priority.insert(data.draw(st.integers(0, len(priority))), "ghost")
    elif kind == "repeated id":
        i = data.draw(st.integers(1, len(priority) - 1))
        priority[i] = priority[i - 1]
    elif kind == "unknown type":
        students[data.draw(pick)]["types"].append("t9")
    elif kind == "t0 held":
        students[data.draw(pick)]["types"].append("t0")
    elif kind == "t0 listed":
        payload["types"].append("t0")
    elif kind == "rank too large":
        quotas.append({"type": "t1", "rank": data.draw(st.sampled_from([99, 100])),
                       "quota": 1})
    elif kind == "unknown quota type":
        quotas.append({"type": "t9", "rank": 1, "quota": 1})
    elif kind == "rank zero":
        quotas.append({"type": "t1", "rank": 0, "quota": 1})
    elif kind == "negative quota":
        quotas.append({"type": "t1", "rank": 1, "quota": -1})
    else:
        quotas.append(dict(quotas[data.draw(st.integers(0, len(quotas) - 1))]))


def _multi_fault(data, payload):
    kinds = ["school", "duplicate school", "unknown student", "unknown school"]
    ranked = [sid for sid, prefs in payload["preferences"].items() if prefs]
    if ranked:
        kinds.append("repeated school")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "school":
        _break(data, payload, data.draw(st.sampled_from(payload["schools"])))
    elif kind == "duplicate school":
        payload["schools"].append(copy.deepcopy(payload["schools"][0]))
    elif kind == "unknown student":
        payload["preferences"]["ghost"] = []
    elif kind == "unknown school":
        sid = payload["students"][0]["id"] if payload["students"] else "ghost"
        payload["preferences"][sid] = ["cz"]
    else:
        prefs = payload["preferences"][data.draw(st.sampled_from(ranked))]
        prefs.append(prefs[0])


def _outcome(load, payload):
    try:
        return load(copy.deepcopy(payload)), None
    except InstanceFormatError as err:
        return None, str(err)


def _assert_same_instance(got, want):
    assert got.groups() == want.groups()
    assert got.priority == want.priority
    assert {sid: got.group_of(sid) for sid in got.priority} == {
        sid: want.group_of(sid) for sid in want.priority
    }
    assert got.students == want.students


@settings(max_examples=300, deadline=None)
@given(payload=_instance_payloads(), faults=st.integers(0, 2), data=st.data())
def test_instance_loader_matches_record_reference(payload, faults, data):
    for _ in range(faults):
        _break(data, payload, payload)
    got, error = _outcome(instance_from_payload, payload)
    want, expected = _outcome(record_instance_from_payload, payload)
    assert error == expected
    if got is not None:
        _assert_same_instance(got, want)


@settings(max_examples=300, deadline=None)
@given(payload=_multi_payloads(), faults=st.integers(0, 2), data=st.data())
def test_multi_loader_matches_record_reference(payload, faults, data):
    for _ in range(faults):
        _multi_fault(data, payload)
    got, error = _outcome(multi_from_payload, payload)
    want, expected = _outcome(record_multi_from_payload, payload)
    assert error == expected
    if got is not None:
        assert got.instances.keys() == want.keys()
        for cid, instance in got.instances.items():
            _assert_same_instance(instance, want[cid])


def test_loading_and_solving_a_file_makes_no_student_records(tmp_path, monkeypatch):
    instance = generate_instance(300, 3, 2, seed=5)
    single = tmp_path / "instance.json"
    single.write_text(dump_json(instance_to_payload(instance)), encoding="utf-8")
    ids = list(instance.priority)
    multi = tmp_path / "multi.json"
    multi.write_text(
        dump_json(
            {
                "types": sorted(instance.types),
                "students": instance_to_payload(instance)["students"],
                "schools": [
                    {"id": cid, "capacity": 40, "quotas": [], "priority": order}
                    for cid, order in (("X", ids), ("Y", ids[::-1]))
                ],
                "preferences": {sid: ["X", "Y"] for sid in ids},
            }
        ),
        encoding="utf-8",
    )
    made = []
    original = StudentRecord.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StudentRecord, "__init__", counted)
    out = str(tmp_path / "out.json")
    assert cli.main(["solve", str(single), "--out", out]) == 0
    assert cli.main(["verify", str(single), out]) == 0
    assert cli.main(["gda", str(multi), "--out", out]) == 0
    probe = f"X:{ids[100]}:{ids[200]}"
    assert cli.main(["gda", str(multi), "--probe", probe]) in (0, 1)
    assert made == []
    # the records view is still there for library callers, built on first use
    assert len(load_instance(str(single)).students) == 300
    assert len(made) == 300


# The loaders run with the cyclic collector paused and scan the students
# array once; both must leave every verdict and message as it was.

# what -> (file loader, payload loader, its record reference, CLI command);
# DOCUMENTS gives each one's payload and schema
LOADERS = {
    "instance file": (
        load_instance, instance_from_payload, record_instance_from_payload, "solve"
    ),
    "multi-school file": (
        load_multi, multi_from_payload, record_multi_from_payload, "gda"
    ),
}


def _write(tmp_path, text) -> str:
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def collector_enabled():
    """Leave the collector on after the test, whatever the test did."""
    yield
    gc.enable()


@pytest.mark.parametrize("what", sorted(LOADERS))
@pytest.mark.parametrize("caller_enabled", [True, False])
def test_loaders_put_back_the_callers_collector_state(
    what, caller_enabled, tmp_path, collector_enabled
):
    load = LOADERS[what][0]
    make, _schema = DOCUMENTS[what]
    broken = make()
    broken["students"][0]["types"] = "t1"
    texts = {
        "good": json.dumps(make()),
        "bad JSON": "{",
        "schema error": json.dumps(broken),
    }
    for case, text in texts.items():
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        path = _write(tmp_path, text)
        if case == "good":
            load(path)
        else:
            with pytest.raises(InstanceFormatError):
                load(path)
        assert gc.isenabled() is caller_enabled, case


def test_loading_starts_at_most_one_collection_and_leaves_no_garbage(tmp_path):
    instance = generate_instance(20000, 3, 2, 7)
    path = _write(tmp_path, dump_json(instance_to_payload(instance)))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        loaded = load_instance(path)
    finally:
        gc.callbacks.remove(count)
    # one may start as the load hands back the collector
    assert len(starts) <= 1
    assert gc.collect() == 0
    assert loaded.columns.ids == instance.columns.ids


SCAN_FAULTS = {
    "integer type name": lambda s: s["types"].append(1),
    "null type name": lambda s: s["types"].append(None),
    "boolean type name": lambda s: s["types"].append(True),
    "float type name": lambda s: s["types"].append(1.5),
    "list type name": lambda s: s["types"].append([]),
    "object type name": lambda s: s["types"].append({}),
    "types as a string": lambda s: s.update(types="ab"),
    "integer id": lambda s: s.update(id=7),
    "missing key": lambda s: s.pop("types"),
    "extra key": lambda s: s.update(extra=1),
}


@pytest.mark.parametrize("what", sorted(LOADERS))
@pytest.mark.parametrize("fault", sorted(SCAN_FAULTS))
def test_students_scan_faults_keep_the_jsonschema_messages(
    what, fault, tmp_path, capsys
):
    command = LOADERS[what][3]
    make, schema = DOCUMENTS[what]
    payload = make()
    SCAN_FAULTS[fault](payload["students"][-1])
    expected = _jsonschema_text(payload, schema, what)
    assert expected is not None
    capsys.readouterr()
    assert cli.main([command, _write(tmp_path, json.dumps(payload))]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@settings(max_examples=300, deadline=None)
@given(
    what=st.sampled_from(sorted(LOADERS)),
    mutations=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_loaders_agree_with_jsonschema(what, mutations, data):
    _load, load, reference, _command = LOADERS[what]
    make, schema = DOCUMENTS[what]
    payload = make()
    # most mutations land inside one students item, the scanned array
    for _ in range(mutations):
        within = ()
        if isinstance(payload, dict) and isinstance(payload.get("students"), list):
            if payload["students"] and data.draw(st.integers(0, 3)):
                index = data.draw(st.integers(0, len(payload["students"]) - 1))
                within = ("students", index)
        payload = _mutate(data, payload, within)
    expected = _jsonschema_text(payload, schema, what)
    _got, error = _outcome(load, payload)
    if expected is not None:
        assert error == expected
    else:
        assert error == _outcome(reference, payload)[1]


# The file loaders split the students array on its id members
# (files._sliced) and give any text they do not fully take to json.loads:
# an empty array and items with types first among them, as the tokens read
# only id-first items. Differential test: a loaded file against the payload
# loader on json.loads of the same text, for texts written with drawn
# whitespace, escapes, member order, item key order, and ids and type names
# holding the characters a tokenizer or a decoder could trip on, with the
# window size patched down to a few items.

# pieces of ids: characters that JSON writes as they are or escapes, the
# six characters of a \u escape, which JSON writes with its backslash, and
# the start of an id member, which JSON writes with escaped quotes
ID_PIECES = st.sampled_from(
    list('}],"\\{[:x \u00e9\u4e2d\U0001f600\t') + ["\\u0041", '"id": "']
)
# pieces of type names: the characters that end or escape a string, an
# array or a member, and the start of a types member
TYPE_PIECES = st.sampled_from(list(']"\\:[,{}t ') + ['"types": ['])


def _renamed(value, names):
    """value with every string that names a key of names replaced."""
    if isinstance(value, str):
        return names.get(value, value)
    if isinstance(value, list):
        return [_renamed(item, names) for item in value]
    if isinstance(value, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in value.items()}
    return value


@st.composite
def _documents(draw):
    """(what, text, clean, item): a document's text, whether the tokens
    take it (one students member of at least one item, all with id first,
    no fault; they refuse any other text) and the length of its longest
    students item's text."""
    what = draw(st.sampled_from(sorted(LOADERS)))
    payload = draw(
        _instance_payloads() if what == "instance file" else _multi_payloads()
    )
    count = len(payload["students"])
    ids = draw(
        st.lists(st.lists(ID_PIECES, max_size=4).map("".join),
                 min_size=count, max_size=count, unique=True)
    )
    payload = _renamed(payload, {f"s{i}": sid for i, sid in enumerate(ids)})
    names = draw(
        st.lists(st.lists(TYPE_PIECES, min_size=1, max_size=3).map("".join),
                 min_size=len(TYPE_NAMES), max_size=len(TYPE_NAMES), unique=True)
    )
    payload = _renamed(payload, dict(zip(TYPE_NAMES, names)))
    # the items' key order: one for all items, or alternating from id first
    order = draw(st.sampled_from(["id first", "types first", "mixed"]))
    clean = count > 0 and (order == "id first" or (order == "mixed" and count < 2))
    for k, item in enumerate(payload["students"]):
        if order == "types first" or (order == "mixed" and k % 2):
            payload["students"][k] = {"types": item["types"], "id": item["id"]}
    members = list(payload.items())
    if payload["students"] and draw(st.booleans()):
        # a third key anywhere in the first or the last item, holding a '}'
        k = draw(st.sampled_from([0, count - 1]))
        entries = list(payload["students"][k].items())
        entries.insert(draw(st.integers(0, 2)), ("zz", "}"))
        payload["students"][k] = dict(entries)
        clean = False
    if draw(st.booleans()):
        members.append(("zz", {"x": "}", "y": [{}]}))
    if draw(st.booleans()):
        # a second students member; json.loads keeps the last one
        other = draw(_student_list())[1]
        members.insert(draw(st.integers(0, len(members))), ("students", other))
        clean = False
    members = draw(st.permutations(members))
    options = {
        "indent": draw(st.sampled_from([None, 0, 2, "\t", " \r "])),
        "separators": draw(
            st.sampled_from([(",", ":"), (", ", ": "), (" ,\n", " :\t")])
        ),
        "ensure_ascii": draw(st.booleans()),
    }
    space = st.sampled_from(["", " ", "\n", "\r\n\t "])
    comma = draw(space) + "," + draw(space)
    text = (
        draw(space) + "{" + draw(space)
        + comma.join(
            json.dumps(key) + draw(space) + ":" + draw(space)
            + json.dumps(value, **options)
            for key, value in members
        )
        + draw(space) + "}" + draw(space)
    )
    item = max((len(json.dumps(s, **options)) for s in payload["students"]), default=1)
    return what, text, clean, item


def _same_loaded(got, want):
    if isinstance(want, MultiInstance):
        assert (got.types, got.schools, got.preferences) == (
            want.types, want.schools, want.preferences
        )
    else:
        assert (got.capacity, got.priority, got.types, got.quotas) == (
            want.capacity, want.priority, want.types, want.quotas
        )
    assert got.columns.ids == want.columns.ids
    assert got.columns.group_index == want.columns.group_index
    assert got.columns.group_keys == want.columns.group_keys


@settings(max_examples=400, deadline=None)
@given(document=_documents(), slice_items=st.sampled_from([1, 2, 3, None]))
def test_sliced_loaders_match_json_loads(tmp_path_factory, document, slice_items):
    what, text, clean, item = document
    load, from_payload, _reference, _command = LOADERS[what]
    path = str(tmp_path_factory.mktemp("sliced") / "input.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    # at most slice_items items' worth of text per slice
    size = files._SLICE if slice_items is None else slice_items * item
    with mock.patch.object(files, "_SLICE", size):
        # an empty array or a types-first item goes to the whole text too
        assert (files._sliced(text) is not None) is clean
        got, error = _outcome(load, path)
    want, expected = _outcome(from_payload, json.loads(text))
    assert error == expected
    if want is not None:
        _same_loaded(got, want)


def _taken_in_slices(monkeypatch, load, path, size):
    """Load path in windows of size characters, failing if the whole text
    goes to json.loads."""

    def refused(text, path, what):
        raise AssertionError("the students array was not split")

    monkeypatch.setattr(files, "_parsed", refused)
    with mock.patch.object(files, "_SLICE", size):
        return load(path)


@pytest.mark.parametrize("size", [files._SLICE, 4096])
def test_gen_output_and_a_market_file_are_read_in_slices(tmp_path, monkeypatch, size):
    single = str(tmp_path / "gen.json")
    assert cli.main(["gen", "--students", "3000", "--types", "3", "--out", single]) == 0
    market = seeded_market(2000, 1)
    multi = str(tmp_path / "market.json")
    write_json(market_payload(market), multi)
    expected = instance_from_payload(json.loads(Path(single).read_text("utf-8")))
    _same_loaded(_taken_in_slices(monkeypatch, load_instance, single, size), expected)
    _same_loaded(_taken_in_slices(monkeypatch, load_multi, multi, size), market)


@pytest.mark.parametrize(
    "text, message",
    [
        ("﻿{}", "Unexpected UTF-8 BOM"),
        ('{"capacity": 1' + "0" * 5000 + "}", "Exceeds the limit"),
        ('{"students": ' + "[" * 100000 + "]" * 100000 + "}", "nests too deeply"),
        ('{"students": [{"id": "a}", "types": []}, ]}', "Expecting value"),
        ('{"students": [{"id": "a", "types": []}}', "Expecting ',' delimiter"),
        ('{"students": []} {}', "Extra data"),
        # two items with no comma between them
        ('{"students": [{"id": "a", "types": []}{"id": "b", "types": []}]}',
         "Expecting ',' delimiter"),
        ('{"students": [{"id": "a\x01", "types": []}]}', "Invalid control character"),
        ('{"students": [{"id": "a\\x", "types": []}]}', "Invalid \\\\escape"),
        # valid JSON that breaks the schema: the schema check's message
        ('{"capacity": 1, "types": ["t1"], "quotas": [], "priority": ["a"], '
         '"students": [{"id": "a", "types": [["t1"]]}]}',
         "\\['t1'\\] is not of type 'string' \\(at students/0/types/0\\)"),
        # a third key at the start of an item and at the end of the last one
        ('{"capacity": 1, "types": [], "quotas": [], "priority": ["a", "b"], '
         '"students": [{"id": "a", "types": []}, {"zz": "}", "id": "b", "types": []}]}',
         "\\('zz' was unexpected\\) \\(at students/1\\)"),
        ('{"capacity": 1, "types": [], "quotas": [], "priority": ["a"], '
         '"students": [{"types": [], "id": "a", "zz": "}"}]}',
         "\\('zz' was unexpected\\) \\(at students/0\\)"),
    ],
)
def test_texts_the_slices_refuse_keep_the_json_messages(tmp_path, text, message):
    assert files._sliced(text) is None
    with pytest.raises(InstanceFormatError, match=message):
        load_instance(_write(tmp_path, text))


def test_load_instance_holds_at_most_five_times_the_file(tmp_path):
    instance = generate_instance(20000, 3, 2, 7)
    path = _write(tmp_path, dump_json(instance_to_payload(instance)))
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        loaded = load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.columns.ids == instance.columns.ids
    # the text, the ids and the priority strings; a whole-text json.loads
    # also holds a dict and a list per student, over 7 times the file
    assert peak <= 5 * size
