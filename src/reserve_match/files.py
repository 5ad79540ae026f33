"""JSON file formats: instances, multi-school instances, targets, results.

All documents are schema-validated and unknown keys are rejected. Output is
byte-deterministic: sorted keys, two-space indent, trailing newline, ratios
as exact "p/q" strings.

The JSON Schema dicts below are the published spec of each document. They
are checked by validators compiled from those dicts in one pass over the
payload, with the verdicts, messages and error paths of
``jsonschema.validate`` under Draft 2020-12 (the tests compare the two).
Integer fields accept integral floats such as ``2.0``, as that draft does,
and are read as ints.

Loading makes no object per student: the ``students`` array goes straight
into ``StudentColumns`` (ids in file order, one group index per student, one
dict lookup per student to intern its ``types`` list). The instance's
``students`` view of ``StudentRecord``s is a boundary view for record-taking
callers, built only if one asks; no loader, solver or writer reads it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .baseline import BaselineResult
from .gda import MultiInstance, MultiMatching, School
from .model import (
    ChoiceResult,
    GroupKey,
    Instance,
    InternalInvariantError,
    MalformedInstanceError,
    Ratio,
    StudentColumns,
    group_counts,
    group_label,
    parse_group_label,
)


class InstanceFormatError(ValueError):
    """Raised for unreadable, schema-violating or incoherent input files."""


_QUOTAS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "additionalProperties": False,
        "required": ["type", "rank", "quota"],
        "properties": {
            "type": {"type": "string"},
            "rank": {"type": "integer", "minimum": 1},
            "quota": {"type": "integer", "minimum": 0},
        },
    },
}

_STUDENTS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "additionalProperties": False,
        "required": ["id", "types"],
        "properties": {
            "id": {"type": "string"},
            "types": {"type": "array", "items": {"type": "string"}},
        },
    },
}

_PRIORITY_SCHEMA = {"type": "array", "items": {"type": "string"}}

INSTANCE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["capacity", "types", "quotas", "students", "priority"],
    "properties": {
        "capacity": {"type": "integer", "minimum": 0},
        "types": {"type": "array", "items": {"type": "string"}},
        "quotas": _QUOTAS_SCHEMA,
        "students": _STUDENTS_SCHEMA,
        "priority": _PRIORITY_SCHEMA,
    },
}

MULTI_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["types", "students", "schools", "preferences"],
    "properties": {
        "types": {"type": "array", "items": {"type": "string"}},
        "students": _STUDENTS_SCHEMA,
        "schools": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "capacity", "quotas", "priority"],
                "properties": {
                    "id": {"type": "string"},
                    "capacity": {"type": "integer", "minimum": 0},
                    "quotas": _QUOTAS_SCHEMA,
                    "priority": _PRIORITY_SCHEMA,
                },
            },
        },
        "preferences": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "string"},
            },
        },
    },
}

TARGETS_SCHEMA = {
    "type": "object",
    "additionalProperties": {"type": "integer", "minimum": 0},
}

SELECTED_SCHEMA = {
    "type": "object",
    "required": ["selected"],
    "properties": {
        "selected": {"type": "array", "items": {"type": "string"}},
    },
}


# A compiled check returns None for a valid value, else the (path, message)
# of the error jsonschema.validate reports: the shallowest one, the one whose
# path sorts last among equally deep ones (its best_match), and the first in
# schema keyword order among those at one path.
_Error = tuple[tuple[Any, ...], str]
_Check = Callable[[Any], Optional[_Error]]

_TYPE_KEYWORDS = {
    "array": {"type", "items"},
    "integer": {"type", "minimum"},
    "object": {"type", "additionalProperties", "required", "properties"},
    "string": {"type"},
}


def _is_integer(value: Any) -> bool:
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, float) and value.is_integer()


def _type_error(value: Any, name: str) -> _Error:
    return (), f"{value!r} is not of type {name!r}"


def _deeper(best: Optional[_Error], key: Any, error: _Error) -> _Error:
    """The better of best and a child's error, once key is put before it."""
    path = (key,) + error[0]
    if best is None or (-len(path), path) > (-len(best[0]), best[0]):
        return path, error[1]
    return best


def _compile(schema: Mapping[str, Any]) -> _Check:
    """Check for the JSON Schema subset these documents use.

    Every (sub)schema names its type first; the other keywords allowed are
    those of _TYPE_KEYWORDS. Anything else raises, so the spec cannot grow a
    keyword that goes unchecked.
    """
    if next(iter(schema), None) != "type" or schema["type"] not in _TYPE_KEYWORDS:
        raise ValueError(f"unsupported schema {schema!r}")
    kind = schema["type"]
    unknown = schema.keys() - _TYPE_KEYWORDS[kind]
    if unknown:
        raise ValueError(f"unsupported keywords {sorted(unknown)} for {kind}")
    if kind == "string":
        return _check_string
    if kind == "integer":
        return _compile_integer(schema.get("minimum"))
    if kind == "array":
        return _compile_array(schema.get("items"))
    return _compile_object(schema)


def _check_string(value: Any) -> Optional[_Error]:
    return None if isinstance(value, str) else _type_error(value, "string")


def _compile_integer(minimum: Optional[int]) -> _Check:
    def check(value: Any) -> Optional[_Error]:
        if not _is_integer(value):
            return _type_error(value, "integer")
        if minimum is not None and value < minimum:
            return (), f"{value!r} is less than the minimum of {minimum!r}"
        return None

    return check


_STRING = {"type": "string"}
_STRINGS = {"type": "array", "items": _STRING}


def _all_strings(values: Iterable[Any]) -> bool:
    return all(map(isinstance, values, repeat(str)))


def _quick_check(
    items: Optional[Mapping[str, Any]],
) -> Optional[Callable[[list], bool]]:
    """A scan that passes the common valid arrays without a call per item.

    It covers arrays of strings and arrays of closed objects whose fields
    are all required strings or string arrays (students). It answers only
    "valid"; on False the generic check finds the exact error.
    """
    if items is None:
        return None
    if items == _STRING:
        return _all_strings
    fields = items.get("properties", {})
    if not (
        items["type"] == "object"
        and items.get("additionalProperties") is False
        and set(items.get("required", ())) == fields.keys()
        and all(sub in (_STRING, _STRINGS) for sub in fields.values())
    ):
        return None
    size = len(fields)
    columns = [(itemgetter(key), sub == _STRINGS) for key, sub in fields.items()]

    def scan(value: list) -> bool:
        # an item of the right size holding every field has no other key
        if not (
            all(map(isinstance, value, repeat(dict)))
            and all(map(eq, map(len, value), repeat(size)))
        ):
            return False
        for get, nested in columns:
            try:
                column = list(map(get, value))
            except KeyError:
                return False
            if nested:
                if not all(map(isinstance, column, repeat(list))):
                    return False
                column = chain.from_iterable(column)
            if not _all_strings(column):
                return False
        return True

    return scan


def _compile_array(items: Optional[Mapping[str, Any]]) -> _Check:
    item_check = _compile(items) if items is not None else None
    quick = _quick_check(items)

    def check(value: Any) -> Optional[_Error]:
        if not isinstance(value, list):
            return _type_error(value, "array")
        if quick is not None and quick(value):
            return None
        best = None
        if item_check is not None:
            for index, item in enumerate(value):
                error = item_check(item)
                if error is not None:
                    best = _deeper(best, index, error)
        return best

    return check


def _compile_object(schema: Mapping[str, Any]) -> _Check:
    properties = {
        key: _compile(sub) for key, sub in schema.get("properties", {}).items()
    }
    known = frozenset(properties)
    extra = schema.get("additionalProperties", True)
    extra_check = _compile(extra) if isinstance(extra, Mapping) else None
    required = tuple(schema.get("required", ()))
    needed = frozenset(required)

    def closed(value: dict) -> Optional[str]:
        if value.keys() <= known:
            return None
        extras = sorted((key for key in value if key not in known), key=str)
        listed = ", ".join(repr(key) for key in extras)
        verb = "was" if len(extras) == 1 else "were"
        return f"Additional properties are not allowed ({listed} {verb} unexpected)"

    def present(value: dict) -> Optional[str]:
        if value.keys() >= needed:
            return None
        missing = next(key for key in required if key not in value)
        return f"{missing!r} is a required property"

    rules = []  # own-level checks, in schema keyword order
    for keyword in schema:
        if keyword == "additionalProperties" and extra is False:
            rules.append(closed)
        elif keyword == "required":
            rules.append(present)

    def check(value: Any) -> Optional[_Error]:
        if not isinstance(value, dict):
            return _type_error(value, "object")
        for rule in rules:
            message = rule(value)
            if message is not None:
                return (), message
        best = None
        for key, sub in properties.items():
            if key in value:
                error = sub(value[key])
                if error is not None:
                    best = _deeper(best, key, error)
        if extra_check is not None:
            for key, item in value.items():
                if key not in known:
                    error = extra_check(item)
                    if error is not None:
                        best = _deeper(best, key, error)
        return best

    return check


def _validated(payload: Any, schema: Mapping[str, Any], what: str) -> Any:
    error = _compile(schema)(payload)
    if error is not None:
        path, message = error
        where = "/".join(str(p) for p in path) or "document root"
        raise InstanceFormatError(f"bad {what}: {message} (at {where})")
    return payload


def _read_json(path: str, what: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InstanceFormatError(f"cannot read {what} {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise InstanceFormatError(f"{what} {path!r} is not JSON: {err}") from err


def _quotas_from_payload(raw: list[dict]) -> dict[tuple[str, int], int]:
    quotas: dict[tuple[str, int], int] = {}
    for entry in raw:
        key = (entry["type"], int(entry["rank"]))
        if key in quotas:
            raise InstanceFormatError(
                f"duplicate quota for type {key[0]!r} rank {key[1]}"
            )
        quotas[key] = int(entry["quota"])
    return quotas


def _student_columns(raw: list[dict]) -> StudentColumns:
    """Columns of a schema-valid students array; no object per student."""
    return StudentColumns.intern(
        list(map(itemgetter("id"), raw)), map(tuple, map(itemgetter("types"), raw))
    )


def instance_from_payload(payload: Any) -> Instance:
    """InstanceFile JSON value to a validated Instance."""
    _validated(payload, INSTANCE_SCHEMA, "instance file")
    try:
        return Instance(
            students=_student_columns(payload["students"]),
            capacity=int(payload["capacity"]),
            priority=payload["priority"],
            types=payload["types"],
            quotas=_quotas_from_payload(payload["quotas"]),
        )
    except MalformedInstanceError as err:
        raise InstanceFormatError(str(err)) from err


def instance_to_payload(instance: Instance) -> dict[str, Any]:
    # one list per group, shared by its students; the keys are sorted
    # tuples, as the file lists them
    types = [list(key) for key in instance.columns.group_keys]
    return {
        "capacity": instance.capacity,
        "types": sorted(instance.types),
        "quotas": [
            {"type": t, "rank": rank, "quota": count}
            for (t, rank), count in sorted(instance.quotas.items())
        ],
        "students": [
            {"id": sid, "types": types[g]}
            for sid, g in zip(instance.columns.ids, instance.columns.group_index)
        ],
        "priority": list(instance.priority),
    }


def multi_from_payload(payload: Any) -> MultiInstance:
    """Multi-school JSON value to a validated MultiInstance."""
    _validated(payload, MULTI_SCHEMA, "multi-school file")
    try:
        return MultiInstance(
            students=_student_columns(payload["students"]),
            types=payload["types"],
            schools=[
                School(
                    id=c["id"],
                    capacity=int(c["capacity"]),
                    priority=tuple(c["priority"]),
                    quotas=_quotas_from_payload(c["quotas"]),
                )
                for c in payload["schools"]
            ],
            preferences=payload["preferences"],
        )
    except MalformedInstanceError as err:
        raise InstanceFormatError(str(err)) from err


def load_instance(path: str) -> Instance:
    return instance_from_payload(_read_json(path, "instance file"))


def load_multi(path: str) -> MultiInstance:
    return multi_from_payload(_read_json(path, "multi-school file"))


def load_targets(path: str, instance: Instance) -> dict[GroupKey, int]:
    """Targets file (group label to integer) resolved against the instance."""
    payload = _validated(
        _read_json(path, "targets file"), TARGETS_SCHEMA, "targets file"
    )
    known = {g.key for g in instance.groups()}
    targets: dict[GroupKey, int] = {}
    for label, value in payload.items():
        key = parse_group_label(label)
        if key not in known:
            raise InstanceFormatError(f"targets name unknown group {label!r}")
        if key in targets:
            raise InstanceFormatError(f"targets repeat group {label!r}")
        targets[key] = int(value)
    return targets


def load_selected(path: str) -> list[str]:
    """Selected ids from a result file (extra result keys are ignored)."""
    payload = _validated(
        _read_json(path, "result file"), SELECTED_SCHEMA, "result file"
    )
    selected = payload["selected"]
    if len(set(selected)) != len(selected):
        raise InstanceFormatError("result file repeats a student id")
    return selected


def choice_counts_by_label(
    instance: Instance, matching: Mapping[str, Any]
) -> dict[str, int]:
    """Per-group counts of a matching's students, keyed by group label."""
    counts = group_counts(instance, matching.keys())
    return {group_label(key): value for key, value in counts.items()}


def fraction_str(value: Ratio) -> str:
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _in_priority_order(
    instance: Instance, selected: frozenset[str], counts: Mapping[GroupKey, int]
) -> list[str]:
    """A selection that takes the top counts[key] members of each group,
    listed in priority order, read off each group's member positions."""
    picked = sorted(
        chain.from_iterable(
            positions[: counts.get(g.key, 0)]
            for g, positions in zip(instance.groups(), instance.member_positions())
        )
    )
    ordered = list(map(instance.priority.__getitem__, picked))
    if len(ordered) != len(selected) or not selected.issuperset(ordered):
        raise InternalInvariantError("selection is not a top-of-group prefix")
    return ordered


def choice_result_payload(
    instance: Instance, result: ChoiceResult, backend: str = "flow"
) -> dict[str, Any]:
    """ResultFile payload for a solver run.

    ``backend`` names the solver in the file. The flow engine is the only
    one, so it defaults to "flow"; the parameter stays because existing
    callers (the benchmark's traced run) pass it positionally.
    """
    return {
        "alpha": fraction_str(result.alpha),
        "targets": {
            group_label(key): value for key, value in result.targets.items()
        },
        "selected": _in_priority_order(
            instance, result.selected, result.per_group_counts
        ),
        "per_group": {
            group_label(key): value
            for key, value in result.per_group_counts.items()
        },
        "signature": list(result.signature),
        "backend": backend,
    }


def baseline_result_payload(
    instance: Instance, result: BaselineResult
) -> dict[str, Any]:
    """ResultFile payload for the sequential baseline.

    alpha reports the ratio the baseline achieved; there are no targets.
    """
    return {
        "alpha": fraction_str(result.min_ratio),
        "targets": {},
        "selected": _in_priority_order(
            instance, result.selected, result.per_group_counts
        ),
        "per_group": {
            group_label(key): value
            for key, value in result.per_group_counts.items()
        },
        "signature": list(result.signature),
        "backend": "baseline",
    }


def gda_result_payload(result: MultiMatching) -> dict[str, Any]:
    """ResultFile payload for a multi-school run, with the round trace."""
    return {
        "backend": "gda",
        "matched": {
            cid: sorted(children)
            for cid, children in result.per_school.items()
        },
        "unmatched": sorted(
            sid for sid, cid in result.assignment.items() if cid is None
        ),
        "rounds": [
            {
                "round": rt.number,
                "proposals": {cid: list(ids) for cid, ids in rt.proposals.items()},
                "pools": {cid: list(ids) for cid, ids in rt.pools.items()},
                "selected": {cid: list(ids) for cid, ids in rt.selected.items()},
                "rejected": {cid: list(ids) for cid, ids in rt.rejected.items()},
            }
            for rt in result.rounds
        ],
    }


def dump_json(payload: Any) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus the newline. Any indent makes the standard library fall back to
    its pure-Python encoder, which makes several calls per item. This writer
    works on whole arrays instead (see _texts): a list of strings is one C
    call per string, and a list of objects with the same string keys (the
    students array) is written column by column, each key encoded once, so
    it costs a few C calls per object. Every other scalar goes to the C
    encoder.
    """
    return _text(payload, "\n") + "\n"


def _json_key(key: Any) -> str:
    """An object key as json.dumps writes it: str, or a scalar's JSON text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _text(value: Any, newline: str) -> str:
    """value's indented JSON text; newline ends a line at its depth."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        texts = _texts(value, inner)
        # the brackets join the end items, so the whole text is copied once
        texts[0] = "[" + inner + texts[0]
        texts[-1] += newline + "]"
        return ("," + inner).join(texts)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        keys, items = zip(*sorted(value.items()))
        heads = ["," + inner + _json_key(key) + ": " for key in keys]
        heads[0] = "{" + heads[0][1:]
        # one join of heads and texts, so the whole text is copied once
        members = chain.from_iterable(zip(heads, _texts(items, inner)))
        return "".join(chain(members, (newline + "}",)))
    return json.dumps(value)


def _texts(values: Sequence[Any], newline: str) -> list[str]:
    """The JSON text of each of values, all at the depth newline ends."""
    try:
        return list(map(encode_basestring_ascii, values))
    except TypeError:  # not all strings
        pass
    rows = _rows(values, newline)
    if rows is not None:
        return rows
    # one text per distinct object: the students of a group share their
    # types list, and every value outlives this call, so ids stay unique
    ids = list(map(id, values))
    text = {key: _text(item, newline) for key, item in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def _rows(values: Sequence[Any], newline: str) -> Optional[list[str]]:
    """The texts of objects that all have the same string keys, written a
    column (one key) at a time; None for any other values."""
    first = values[0]
    if not (
        isinstance(first, dict)
        and first
        and all(map(isinstance, first, repeat(str)))
        and all(map(isinstance, values, repeat(dict)))
        and all(map(eq, map(len, values), repeat(len(first))))
    ):
        return None
    inner = newline + "  "
    pieces: list[Iterable[str]] = []
    sep = "{" + inner
    for key in sorted(first):
        try:  # an object of the same size holding every key has no other
            column = list(map(itemgetter(key), values))
        except KeyError:
            return None
        pieces.append(repeat(sep + encode_basestring_ascii(key) + ": "))
        pieces.append(_texts(column, inner))
        sep = "," + inner
    pieces.append(repeat(newline + "}"))
    return list(map("".join, zip(*pieces)))


def write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text, end="")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
