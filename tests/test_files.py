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
    assert multi.school_by_id("X").quotas == {("t1", 1): 1}
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
    assert type(multi_from_payload(multi).school_by_id("X").capacity) is int
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


def _mutate(data, payload):
    """Drop or add a key, or swap one value (leaf or container) for another."""
    path, target = data.draw(st.sampled_from(list(_locations(payload))))
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
    for _ in range(mutations):
        payload = _mutate(data, payload)
    expected = _jsonschema_text(payload, schema, what)
    try:
        _validated(payload, schema, what)
        got = None
    except InstanceFormatError as err:
        got = str(err)
    assert (got is None) == (expected is None)
    assert got == expected
