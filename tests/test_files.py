"""Unit tests for the JSON file formats and payload builders."""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from factories import two_group_school
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import record_instance_from_payload, record_multi_from_payload

from reserve_match import cli
from reserve_match.baseline import sequential_baseline
from reserve_match.files import (
    INSTANCE_SCHEMA,
    MULTI_SCHEMA,
    SELECTED_SCHEMA,
    TARGETS_SCHEMA,
    InstanceFormatError,
    _compile,
    _validated,
    baseline_result_payload,
    choice_result_payload,
    dump_json,
    fraction_str,
    instance_from_payload,
    instance_to_payload,
    load_instance,
    load_multi,
    load_selected,
    load_targets,
    multi_from_payload,
    write_text,
)
from reserve_match.flow import choice_flow
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


@settings(max_examples=500, deadline=None)
@given(_JSON_VALUES)
def test_dump_json_matches_the_standard_indented_encoder(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dump_json_matches_the_standard_encoder_on_edge_values():
    values = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]],
        ("x", ("y", [])), ["é", "\x00\"\\", "😀"], [1, "a", None, True, 2.5],
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
        {"b": 1, "a": [2, 1], "é": {"z": None}}, {1: "int", 2.5: "float"},
        {True: 1}, {None: 0}, "", 0, False,
    ]
    for value in values:
        assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
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
    ]
    for value in values:
        assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="keys must be str"):
        dump_json({(1, 2): 3})
    with pytest.raises(TypeError, match="keys must be str"):
        dump_json([{(1, 2): 3}, {(1, 2): 4}])
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json([object()])


def test_write_text_to_file_and_stdout(tmp_path, capsys):
    out = tmp_path / "out.json"
    write_text("payload\n", str(out))
    assert out.read_text(encoding="utf-8") == "payload\n"
    write_text("to-console\n", None)
    assert capsys.readouterr().out == "to-console\n"


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
        _compile({"type": "string", "maxLength": 3})
    with pytest.raises(ValueError, match="unsupported"):
        _compile({"minimum": 0, "type": "integer"})
    with pytest.raises(ValueError, match="unsupported"):
        _compile({"type": "number"})


def test_cli_import_does_not_load_jsonschema():
    code = "import reserve_match.cli, sys; assert 'jsonschema' not in sys.modules"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# Differential fuzz test: the compiled validators against jsonschema, the
# reference implementation of the schemas, on mutated valid payloads.

DOCUMENTS = {
    "instance file": (instance_payload, INSTANCE_SCHEMA),
    "multi-school file": (multi_payload, MULTI_SCHEMA),
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


@settings(max_examples=400, deadline=None)
@given(
    what=st.sampled_from(sorted(DOCUMENTS)),
    mutations=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_validators_agree_with_jsonschema(what, mutations, data):
    make, schema = DOCUMENTS[what]
    payload = make()
    # half the mutations land inside one students item, where the fast path
    # for arrays of closed objects must hand every fault to the full check
    students = payload.get("students") if isinstance(payload, dict) else None
    for _ in range(mutations):
        within = ()
        if isinstance(students, list) and students and data.draw(st.booleans()):
            within = ("students", data.draw(st.integers(0, len(students) - 1)))
        payload = _mutate(data, payload, within)
        students = payload.get("students") if isinstance(payload, dict) else None
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
        kinds += ["missing id"]
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
