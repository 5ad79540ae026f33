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

The JSON Schema dicts below are the published spec of each document. They
are checked by validators compiled from those dicts in one pass over the
payload, with the verdicts, messages and error paths of
``jsonschema.validate`` under Draft 2020-12 (the tests compare the two).
Integer fields accept integral floats such as ``2.0``, as that draft does,
and are read as ints.

Loading makes no object per student: the ``students`` array goes straight
into ``StudentColumns`` (ids in file order, one group index per student, one
dict lookup per student to intern its ``types`` list). The loaders scan that
array once: the scan checks each item's shape, takes the id and types
columns, interns the types lists and checks the type names on the few
interned group keys instead of on every student; the schema check covers
the rest of the document. Any array the scan does not pass goes to the full
check, which names the same error as before. The instance's ``students``
view of ``StudentRecord``s is a boundary view for record-taking callers,
built only if one asks; no loader, solver or writer reads it.

Every ``load_*`` decodes and builds its document with the cyclic garbage
collector paused, and puts back the caller's collector state when it
returns or raises. The pause loses nothing: a JSON tree holds no cycle and
the loaders make no back-reference, so a collection during a load could
free nothing the load made, and reference counting frees the temporaries
as before. Without it, CPython 3.11 starts 57 collections while loading a
20,000-student file, each walking containers that all survive. Python 3.13
starts its young collections less often, so it gains less there.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

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
    # join takes exactly the str instances, in one C loop with no call per
    # item; the joined text is thrown away
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _compile_array(items: Optional[Mapping[str, Any]]) -> _Check:
    item_check = _compile(items) if items is not None else None
    # an array of strings passes in one C loop
    quick = items == _STRING

    def check(value: Any) -> Optional[_Error]:
        if not isinstance(value, list):
            return _type_error(value, "array")
        if quick and _all_strings(value):
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
    # a map of string arrays (preferences): one scan over all of their items
    quick = not properties and extra == _STRINGS

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
        if quick:
            arrays = list(value.values())
            if all(map(isinstance, arrays, repeat(list))) and _all_strings(
                chain.from_iterable(arrays)
            ):
                return None
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
    except ValueError as err:  # bad JSON, bad UTF-8 or an over-long integer
        raise InstanceFormatError(f"{what} {path!r} is not JSON: {err}") from err
    except RecursionError as err:
        raise InstanceFormatError(f"{what} {path!r} nests too deeply") from err


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


def _scanned_students(payload: Any) -> Optional[StudentColumns]:
    """The columns of payload's students array, read in one scan; None if
    the array may break the schema.

    The scan checks each item's shape, takes the id and types columns once,
    interns the types lists and checks the type names on the interned group
    keys alone: every type name equals a name on its student's group key,
    and no JSON value but a string equals a string.
    """
    raw = payload.get("students") if isinstance(payload, dict) else None
    # an item of two keys holding both fields has no other key
    if not (
        isinstance(raw, list)
        and all(map(isinstance, raw, repeat(dict)))
        and all(map(eq, map(len, raw), repeat(2)))
    ):
        return None
    try:
        ids = list(map(itemgetter("id"), raw))
        types = list(map(itemgetter("types"), raw))
    except KeyError:
        return None
    if not (_all_strings(ids) and all(map(isinstance, types, repeat(list)))):
        return None
    try:
        columns = StudentColumns.intern(ids, map(tuple, types))
    except TypeError:  # a type name that is unhashable or does not sort
        return None
    if not _all_strings(chain.from_iterable(columns.group_keys)):
        return None
    return columns


def _checked_students(
    payload: Any, schema: Mapping[str, Any], what: str
) -> StudentColumns:
    """Schema-check payload and return its students' columns, walking the
    students array once; the errors are those of _validated."""
    columns = _scanned_students(payload)
    if columns is None:
        _validated(payload, schema, what)
        raise InternalInvariantError("the students scan refused a valid array")
    # a valid students array adds no error, so the rest keeps its verdict
    _validated({**payload, "students": []}, schema, what)
    return columns


def instance_from_payload(payload: Any) -> Instance:
    """InstanceFile JSON value to a validated Instance."""
    columns = _checked_students(payload, INSTANCE_SCHEMA, "instance file")
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


def multi_from_payload(payload: Any) -> MultiInstance:
    """Multi-school JSON value to a validated MultiInstance."""
    columns = _checked_students(payload, MULTI_SCHEMA, "multi-school file")
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


def load_instance(path: str) -> Instance:
    with _collector_paused():
        return instance_from_payload(_read_json(path, "instance file"))


def load_multi(path: str) -> MultiInstance:
    with _collector_paused():
        return multi_from_payload(_read_json(path, "multi-school file"))


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

    ``backend`` names the solver in the file. The flow engine is the only
    one, so it defaults to "flow"; the parameter stays because existing
    callers (the benchmark's traced run) pass it positionally.
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
    if out is None:
        print(text, end="")
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
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
    stdout, such as a reader that closed its end of the pipe. Nothing more
    can reach stdout then, so it is pointed at the null device: the
    interpreter's flush at exit drops what is left in its buffer instead
    of failing again.
    """
    parts = chain(_parts(payload, "\n"), ("\n",))
    if out is None:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError as err:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise InstanceFormatError(f"cannot write to stdout: {err}") from err
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as err:
        raise InstanceFormatError(f"cannot write {out!r}: {err}") from err


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
