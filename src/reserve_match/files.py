"""JSON file formats: instances, multi-school instances, targets, results.

All documents are schema-validated and unknown keys are rejected. Output is
byte-deterministic: sorted keys, two-space indent, trailing newline, ratios
as exact "p/q" strings. ``dump_json`` gives those bytes as one string and is
the reference form. The commands write their documents with ``write_json``
instead, which writes the same bytes part by part (a member, an item, or a
run of 128 strings or 512 other array items at a time), so no copy of the
whole text is held: a 200,000-student ``gen`` file, its ``solve`` result
or a ``gda`` round trace is never in memory as text at once.

A ``gda`` result holds the matches, the unmatched students and one entry
per round: the round's proposers and rejected students per school and the
size of each choosing school's pool. The pools and held sets are not
written; they follow from the proposals and rejections (see
gda.RoundTrace).

The JSON Schema dicts below are the published spec of each document. A
document is checked by one recursive walk over its dict and the payload
together, with the verdicts, messages and error paths of
``jsonschema.validate`` under Draft 2020-12 (the tests compare the two).
Integer fields accept integral floats such as ``2.0``, as that draft does,
and are read as ints.

Loading a file written by ``dump_json`` or ``write_json`` makes no dict
or list per student. ``load_instance`` and ``load_multi`` walk the
top-level object with the C JSON scanner and decode its other members
whole, but read the ``students`` array as tokens. One compiled pattern
splits about 64 KiB of its text (``_SLICE`` characters) at a time on the
items' ``"id"`` members, in C, which gives the ids. Between two ids lies
the rest of one item, the comma and the start of the next: each distinct
such text is matched once against the full pattern of that gap, which
gives the text of an item's ``types`` array, and each distinct array text
is decoded once into a slot of ``StudentColumns`` (ids in file order, one
group index per student). The tokens read only items with ``id`` first,
as the writers put it, and must cover the array's text exactly, so they
read the items ``json.loads`` would read; the schema check covers the rest
of the document. Any other text (an empty array, ``types`` before ``id``,
a repeated ``students`` key, a third key in an item, bad JSON, a BOM) is
decoded whole by ``json.loads``, like a document given to
``instance_from_payload`` or ``multi_from_payload`` as a JSON value: the
full check gives any error as above, and its students are interned into
columns in one pass. The instance's ``students`` view of
``StudentRecord``s is a boundary view for record-taking callers, built
only if one asks; no loader, solver or writer reads it.

Every ``load_*`` decodes and builds its document with the cyclic garbage
collector paused, and puts back the caller's collector state when it
returns or raises. The pause loses nothing: a JSON tree holds no cycle and
the loaders make no back-reference, so a collection during a load could
free nothing the load made, and reference counting frees the temporaries
as before. Without it, CPython 3.11 starts 57 collections while decoding
a 20,000-student file whole (the fallback), and 6 while loading a
2,000-student multi-school file (its preferences hold a list per
student), each walking containers that all survive. The split students
array makes no container per student, so loading a ``gen`` file starts
none. Python 3.13 starts its young collections less often, so it gains
less there.
"""

from __future__ import annotations

import gc
import json
import json.decoder
import os
import re
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

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


# The walk returns None for a valid value, else the (path, message) of the
# error jsonschema.validate reports: the shallowest one, the one whose path
# sorts last among equally deep ones (its best_match), and the first in
# schema keyword order among those at one path.
_Error = tuple[tuple[Any, ...], str]

_TYPE_KEYWORDS = {
    "array": {"type", "items"},
    "integer": {"type", "minimum"},
    "object": {"type", "additionalProperties", "required", "properties"},
    "string": {"type"},
}
_CLASSES = {"array": list, "object": dict, "string": str}


def _is_integer(value: Any) -> bool:
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, float) and value.is_integer()


def _deeper(best: Optional[_Error], key: Any, error: _Error) -> _Error:
    """The better of best and a child's error, once key is put before it."""
    path = (key,) + error[0]
    if best is None or (-len(path), path) > (-len(best[0]), best[0]):
        return path, error[1]
    return best


def _supported(schema: dict[str, Any]) -> None:
    """Raise ValueError unless schema is in the JSON Schema subset _error
    checks, so the spec cannot grow a keyword that goes unchecked.

    Every (sub)schema names its type first; the other keywords allowed are
    those of _TYPE_KEYWORDS, and a closed object (additionalProperties
    false) lists required after it, the order _error tests them in.
    """
    if next(iter(schema), None) != "type" or schema["type"] not in _TYPE_KEYWORDS:
        raise ValueError(f"unsupported schema {schema!r}")
    kind = schema["type"]
    unknown = schema.keys() - _TYPE_KEYWORDS[kind]
    if unknown:
        raise ValueError(f"unsupported keywords {sorted(unknown)} for {kind}")
    keywords = list(schema)
    items, extra = schema.get("items"), schema.get("additionalProperties")
    if (
        extra is False
        and "required" in keywords
        and keywords.index("required") < keywords.index("additionalProperties")
    ):
        raise ValueError("unsupported keyword order: required before a closed object")
    for sub in (items, extra, *schema.get("properties", {}).values()):
        if isinstance(sub, dict):
            _supported(sub)


for _published in (INSTANCE_SCHEMA, MULTI_SCHEMA, TARGETS_SCHEMA, SELECTED_SCHEMA):
    _supported(_published)


_STRING = {"type": "string"}
_STRINGS = {"type": "array", "items": _STRING}


def _all_strings(values: Iterable[Any]) -> bool:
    # join takes exactly the str instances, in one C loop with no call per
    # item; the joined text is thrown away
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _error(value: Any, schema: dict[str, Any]) -> Optional[_Error]:
    """The error of value against schema, one of the published schemas or
    a subschema of one (see _supported), or None if it is valid. An array
    of strings, and an object of string arrays (preferences), pass in one C
    loop over all of their items."""
    kind = schema["type"]
    if not (
        _is_integer(value) if kind == "integer" else isinstance(value, _CLASSES[kind])
    ):
        return (), f"{value!r} is not of type {kind!r}"
    if kind == "string":
        return None
    if kind == "integer":
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            return (), f"{value!r} is less than the minimum of {minimum!r}"
        return None
    best = None
    if kind == "array":
        items = schema.get("items")
        if items is None or (items == _STRING and _all_strings(value)):
            return None
        for index, item in enumerate(value):
            error = _error(item, items)
            if error is not None:
                best = _deeper(best, index, error)
        return best
    properties = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    if extra is False and not value.keys() <= properties.keys():
        extras = sorted((key for key in value if key not in properties), key=str)
        listed = ", ".join(repr(key) for key in extras)
        verb = "was" if len(extras) == 1 else "were"
        return (), f"Additional properties are not allowed ({listed} {verb} unexpected)"
    for key in schema.get("required", ()):
        if key not in value:
            return (), f"{key!r} is a required property"
    if not properties and extra == _STRINGS:
        arrays = list(value.values())
        if all(map(isinstance, arrays, repeat(list))) and _all_strings(
            chain.from_iterable(arrays)
        ):
            return None
    for key, sub in properties.items():
        if key in value:
            error = _error(value[key], sub)
            if error is not None:
                best = _deeper(best, key, error)
    if isinstance(extra, dict):
        for key, item in value.items():
            if key not in properties:
                error = _error(item, extra)
                if error is not None:
                    best = _deeper(best, key, error)
    return best


def _validated(payload: Any, schema: dict[str, Any], what: str) -> Any:
    error = _error(payload, schema)
    if error is not None:
        path, message = error
        where = "/".join(str(p) for p in path) or "document root"
        raise InstanceFormatError(f"bad {what}: {message} (at {where})")
    return payload


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InstanceFormatError(f"cannot read {what} {path!r}: {err}") from err
    except ValueError as err:  # bad UTF-8
        raise InstanceFormatError(f"{what} {path!r} is not JSON: {err}") from err


def _parsed(text: str, path: str, what: str) -> Any:
    """The whole document's JSON value, as json.load gives it."""
    try:
        return json.loads(text)
    except ValueError as err:  # bad JSON or an over-long integer
        raise InstanceFormatError(f"{what} {path!r} is not JSON: {err}") from err
    except RecursionError as err:
        raise InstanceFormatError(f"{what} {path!r} nests too deeply") from err


def _read_json(path: str, what: str) -> Any:
    return _parsed(_read_text(path, what), path, what)


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


def _checked_students(
    payload: Any,
    schema: dict[str, Any],
    what: str,
    columns: Optional[StudentColumns] = None,
) -> StudentColumns:
    """Schema-check payload and return its students' columns; the errors
    are those of _validated. columns, when given, are those of a students
    array that was read apart (see _sliced), and payload holds the
    document's other members. Otherwise payload is a whole document, such
    as the whole-text fallback gives: it is checked whole, and its
    students are interned (see StudentColumns.intern)."""
    if columns is None:
        students = _validated(payload, schema, what)["students"]
        return StudentColumns.intern(
            list(map(itemgetter("id"), students)),
            map(tuple, map(itemgetter("types"), students)),
        )
    # a valid students array adds no error, so the rest keeps its verdict
    _validated({**payload, "students": []}, schema, what)
    return columns


# The students array is split this many characters of text at a time.
_SLICE = 65536
_SPACE = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once

# JSON text: whitespace, a string's content, and an array of strings
_WS = r"[ \t\n\r]*"
_CHARS = r'[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*'
_NAMES = rf'\[{_WS}(?:"{_CHARS}"(?:{_WS},{_WS}"{_CHARS}")*{_WS})?\]'
_TYPES = rf'"types"{_WS}:{_WS}({_NAMES})'
# An item's id member, its string's content captured. Splitting the
# students array on it leaves between two ids the rest of one item, the
# comma and the start of the next: a gap. The tokens read only id-first
# items ({"id": ..., "types": [...]}, as dump_json writes them): _OPENING
# runs from '[' to the first id member, _GAP from one id member to the next
# and _CLOSING from the last one through ']'. Group 1 of a gap is the types
# array of the item before it, and group 1 of _CLOSING the last item's.
_ID = re.compile(rf'"id"{_WS}:{_WS}"({_CHARS})"')
_OPENING = re.compile(rf'\[{_WS}\{{{_WS}(?="id")')
_GAP = re.compile(rf"{_WS},{_WS}{_TYPES}{_WS}\}}{_WS},{_WS}\{{{_WS}")
_CLOSING = re.compile(rf"{_WS},{_WS}{_TYPES}{_WS}\}}{_WS}\]")


class _Gaps(dict):
    """Gap text -> slot of the types array it holds, each distinct text
    matched once; -1, not kept, for a text _GAP does not match."""

    def __init__(self, slots: dict[str, int]) -> None:
        super().__init__()
        self.slots = slots

    def __missing__(self, text: str) -> int:
        match = _GAP.fullmatch(text)
        if match is None:
            return -1
        self[text] = slot = self.slots[match[1]]
        return slot


def _sliced(text: str) -> Optional[tuple[dict[str, Any], StudentColumns]]:
    """The members of the top-level object but its students array, and the
    columns of that array, read from the text with the array split on its
    id members (see _split_students); None for any text that is not such an
    object with one students member of id-first items that the tokens
    cover exactly. An empty array, types-first items and mixed key orders
    give None too: they go to the whole-text path.

    The object is walked as json.loads walks it, its other members decoded
    whole by the same C scanner; a repeated key keeps its last value.
    """
    members: dict[str, Any] = {}
    columns = None
    try:
        i = _SPACE(text).end()
        if text[i : i + 1] != "{":
            return None
        i = _SPACE(text, i + 1).end()
        while text[i : i + 1] == '"':
            key, i = _scan(text, i)
            i = _SPACE(text, i).end()
            if text[i : i + 1] != ":":
                return None
            i = _SPACE(text, i + 1).end()
            if key != "students":
                members[key], i = _scan(text, i)
            elif columns is None:
                columns, i = _split_students(text, i)
            else:
                return None
            i = _SPACE(text, i).end()
            if text[i : i + 1] == "}":
                break
            if text[i : i + 1] != ",":
                return None
            i = _SPACE(text, i + 1).end()
        else:
            return None
    except (ValueError, StopIteration, RecursionError):
        return None
    if columns is None or _SPACE(text, i + 1).end() != len(text):
        return None
    return members, columns


def _split_students(text: str, i: int) -> tuple[StudentColumns, int]:
    """The columns of the students array at text[i] and the index past it.

    The array must open with an id-first item (_OPENING). Its text is split
    on its id members (_ID) a window of about _SLICE characters at a time,
    in C. Between two ids lies a gap, which must match _GAP whole; each
    distinct gap is matched once and gives its types array's text, a slot
    key, and each slot is decoded once. A window is cut at the start of its
    last id member, as the gap after it may run past the window; one that
    holds no whole gap is doubled until it does. The array ends at the
    first text after an id that is no gap but starts with _CLOSING. The
    tokens so cover the array exactly, and json.loads would read the same
    items. Any other text, an empty array or a types-first item included,
    raises ValueError.
    """
    head = _OPENING.match(text, i)
    if head is None:
        raise ValueError("not an array of id-first items")
    slots: defaultdict[str, int] = defaultdict(count().__next__)
    gaps = _Gaps(slots)
    ids: list[str] = []
    column = array("I")
    i = head.end()
    size = _SLICE
    while True:
        window = text[i : i + size]
        final = i + size >= len(text)
        parts = _ID.split(window)
        if parts[0]:  # no whole id member at the window's start
            if final or _ID.match(text, i) is None:
                raise ValueError("not an id member")
            size *= 2
            continue
        # the gaps followed by an id member in this window are whole
        found = list(map(gaps.__getitem__, parts[2:-1:2]))
        whole = found.index(-1) if -1 in found else len(found)
        last = _CLOSING.match(parts[2 * whole + 2])
        if last is None and (whole < len(found) or final):
            raise ValueError("an item the tokens do not cover")
        if last is None and not whole:
            size *= 2
            continue
        taken = whole + (last is not None)
        names = parts[1 : 2 * taken : 2]
        if "\\" in window:
            names = [json.loads(f'"{n}"') if "\\" in n else n for n in names]
        ids += names
        column.extend(found[:whole])
        if last is not None:
            column.append(slots[last[1]])
            start = next(islice(_ID.finditer(window), whole, None)).end()
            end = i + start + last.end()
            break
        # the next window starts at the last id member
        content = len(window) - len(parts[-1]) - 1 - len(parts[-2])
        i += window.rindex('"id"', 0, content)
        size = _SLICE
    names = list(map(json.loads, slots))
    if not _all_strings(chain.from_iterable(names)):
        raise ValueError("a type name that is not a string")
    return StudentColumns.from_slots(ids, column, names), end


def instance_from_payload(
    payload: Any, columns: Optional[StudentColumns] = None
) -> Instance:
    """InstanceFile JSON value to a validated Instance. columns, when given,
    are those of the file's students array, read apart (see _sliced), and
    payload holds its other members; otherwise payload is the whole
    document, checked whole (see _checked_students)."""
    columns = _checked_students(payload, INSTANCE_SCHEMA, "instance file", columns)
    try:
        return Instance(
            students=columns,
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


def multi_from_payload(
    payload: Any, columns: Optional[StudentColumns] = None
) -> MultiInstance:
    """Multi-school JSON value to a validated MultiInstance; columns as for
    instance_from_payload."""
    columns = _checked_students(payload, MULTI_SCHEMA, "multi-school file", columns)
    try:
        return MultiInstance(
            students=columns,
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


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run a load with the cyclic garbage collector off, then put back the
    caller's state, also when the load raises. The module docstring says
    why a load needs no collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _loaded(path: str, what: str) -> tuple[Any, Optional[StudentColumns]]:
    """A file's members but its students and their columns, read with the
    students array split on its id members (see _sliced); for any text
    that does not read so, the whole document decoded by json.loads and
    None, so that the checks give every error and message of a
    whole-document load."""
    text = _read_text(path, what)
    return _sliced(text) or (_parsed(text, path, what), None)


def load_instance(path: str) -> Instance:
    with _collector_paused():
        return instance_from_payload(*_loaded(path, "instance file"))


def load_multi(path: str) -> MultiInstance:
    with _collector_paused():
        return multi_from_payload(*_loaded(path, "multi-school file"))


def load_targets(path: str, instance: Instance) -> dict[GroupKey, int]:
    """Targets file (group label to integer) resolved against the instance."""
    with _collector_paused():
        payload = _validated(
            _read_json(path, "targets file"), TARGETS_SCHEMA, "targets file"
        )
    known = set(instance.group_keys())
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
    with _collector_paused():
        payload = _validated(
            _read_json(path, "result file"), SELECTED_SCHEMA, "result file"
        )
    selected = payload["selected"]
    if len(set(selected)) != len(selected):
        raise InstanceFormatError("result file repeats a student id")
    return selected


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
            positions[: counts.get(key, 0)]
            for key, positions in zip(
                instance.group_keys(), instance.member_positions()
            )
        )
    )
    ordered = list(map(instance.priority.__getitem__, picked))
    if len(ordered) != len(selected) or not selected.issuperset(ordered):
        raise InternalInvariantError("selection is not a top-of-group prefix")
    return ordered


def _result_payload(
    instance: Instance,
    result: ChoiceResult | BaselineResult,
    alpha: Ratio,
    targets: Mapping[GroupKey, int],
    backend: str,
) -> dict[str, Any]:
    """The six keys of a single-school ResultFile, in file order."""
    counts = result.per_group_counts
    return {
        "alpha": fraction_str(alpha),
        "targets": {group_label(key): value for key, value in targets.items()},
        "selected": _in_priority_order(instance, result.selected, counts),
        "per_group": {group_label(key): value for key, value in counts.items()},
        "signature": list(result.signature),
        "backend": backend,
    }


def choice_result_payload(
    instance: Instance, result: ChoiceResult, backend: str = "flow"
) -> dict[str, Any]:
    """ResultFile payload for a solver run.

    ``backend`` names the solver in the file. The type lattice is the only
    engine, and "flow" is the value the file format keeps for it, so that
    is the default; the parameter stays because existing callers (the
    benchmark's traced run) pass it positionally.
    """
    return _result_payload(instance, result, result.alpha, result.targets, backend)


def baseline_result_payload(
    instance: Instance, result: BaselineResult
) -> dict[str, Any]:
    """ResultFile payload for the baseline (see baseline.sequential_baseline).

    alpha reports the ratio the baseline achieved; there are no targets.
    """
    return _result_payload(instance, result, result.min_ratio, {}, "baseline")


def gda_result_payload(result: MultiMatching) -> dict[str, Any]:
    """ResultFile payload for a multi-school run, with the round trace.

    Each round gives its proposals, pool sizes and rejections (see
    gda.RoundTrace). The trace's per-school id tuples are passed through as
    they are: JSON writes a tuple as an array, so copying them into lists
    changes no byte.
    """
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
                "proposals": rt.proposals,
                "pools": rt.pools,
                "rejected": rt.rejected,
            }
            for rt in result.rounds
        ],
    }


def dump_json(payload: Any) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus the newline. It is the reference for ``write_json``, which writes
    these bytes part by part without building the whole text. Any indent
    makes the standard library fall back to its pure-Python encoder, which
    makes several calls per item. This writer works on whole arrays
    instead (see _texts): a list of strings is one C call per string, and a
    list of objects with the same string keys (the students array) is
    written column by column, each key encoded once, so it costs a few C
    calls per object. Every other scalar goes to the C encoder.
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
    _write([text], out)


def _write(parts: Iterable[str], out: Optional[str]) -> None:
    """Write parts to the file out, or to stdout when out is None (see
    write_stdout). Errors opening or writing out are InstanceFormatErrors."""
    if out is None:
        write_stdout(parts)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as err:
        raise InstanceFormatError(f"cannot write {out!r}: {err}") from err


# a flat array is written this many items at a time; one _texts call per
# item would be several times slower on a students array
_CHUNK = 512
# strings cost one C call each at any run length, so an array of strings
# (ids) goes in shorter runs, which keeps the writer's parts small
_STRING_RUN = 128
_CONTAINERS = (dict, list, tuple)


def write_json(payload: Any, out: Optional[str]) -> None:
    """Write dump_json(payload) to out, or to stdout when out is None.

    The bytes are dump_json's, written part by part (see _parts), so the
    whole text is never built. Errors opening or writing out are
    InstanceFormatErrors, as in write_text, and so are errors writing to
    stdout (see write_stdout).
    """
    _write(chain(_parts(payload, "\n"), ("\n",)), out)


def write_stdout(parts: Iterable[str]) -> None:
    """Write parts to stdout and flush it. An error writing, such as a
    reader that closed its end of the pipe, is an InstanceFormatError.
    Nothing more can reach stdout then, so it is pointed at the null
    device: the interpreter's flush at exit drops what is left in its
    buffer instead of failing again."""
    try:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
    except OSError as err:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise InstanceFormatError(f"cannot write to stdout: {err}") from err


def _holds_containers(value: Any) -> bool:
    """Whether value is an object with an object or array member, or an
    array whose first item is an object or array."""
    if isinstance(value, dict):
        return any(map(isinstance, value.values(), repeat(_CONTAINERS)))
    return isinstance(value, (list, tuple)) and bool(value) and (
        isinstance(value[0], _CONTAINERS)
    )


def _deep(value: Any) -> bool:
    """Whether value is an object to write member by member: one holding
    containers of containers, or one whose array members hold more than
    _CHUNK items in all."""
    if not isinstance(value, dict):
        return False
    members = value.values()
    return any(map(_holds_containers, members)) or sum(
        len(item) for item in members if isinstance(item, (list, tuple))
    ) > _CHUNK


def _run(values: Sequence[Any]) -> int:
    """How many items of a long flat array one part holds."""
    return _STRING_RUN if isinstance(values[0], str) else _CHUNK


def _parts(value: Any, newline: str) -> Iterator[str]:
    """_text(value, newline) as a run of parts that join to it.

    A deep object (a gda result, one round of its trace, a round's
    proposals at scale, an instance, a large solve result) is written
    member by member, and an array whose first item is a deep object (the
    rounds) item by item. Any other long array, such as an instance's
    students and priority, is written a run of items at a time through
    _texts: _STRING_RUN strings or _CHUNK other items. Everything else is one
    _text part. The choice only sets the size of the parts: each part is
    the text _text gives.
    """
    inner = newline + "  "
    if _deep(value):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + _json_key(key) + ": "
            yield from _parts(item, inner)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)) and value and _deep(value[0]):
        sep = "[" + inner
        for item in value:
            yield sep
            yield from _parts(item, inner)
            sep = "," + inner
        yield newline + "]"
    elif isinstance(value, (list, tuple)) and value and len(value) > _run(value):
        sep = "[" + inner
        comma = "," + inner
        step = _run(value)
        for start in range(0, len(value), step):
            yield sep
            yield comma.join(_texts(value[start : start + step], inner))
            sep = comma
        yield newline + "]"
    else:
        yield _text(value, newline)
