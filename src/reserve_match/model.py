"""Core problem model: instances, groups, signatures, ratios and matching checks.

An instance bundles a student pool, a school capacity q, a strict priority
order, a set of types and ranked quotas. Students holding the same set of
types form a group and are interchangeable with respect to reserved seats,
which is what most of the algorithms in this package exploit.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count
from operator import attrgetter
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

# Reserved name for the implicit general type. Every student holds it and it
# receives q seats at the largest rank; instance files must never mention it.
GENERAL_TYPE = "t0"

# Quota ranks must stay below this. The type lattice keeps two rows of
# quotas per rank, so larger ranks make a check crawl.
MAX_RANKS = 100

# At most this many reserved types may occur in an instance's group keys.
# Every check sums over the 2^k' sets of those types (see flow._TypeLattice):
# at 16 types a choice over 20 groups takes about 0.07 s, and each type
# more about doubles its time and memory.
MAX_RESERVED_TYPES = 16

# Group keys are canonical sorted tuples of type names.
GroupKey = tuple[str, ...]

# Per-rank counts of matched edges, length == max_rank.
Signature = tuple[int, ...]

# Exact rational used for selection ratios; floats are banned from decisions.
Ratio = Fraction

# Per-group minimum counts, keyed by group key.
TargetVector = Mapping[GroupKey, int]

class MalformedInstanceError(ValueError):
    """The instance data violates a structural invariant."""


class InternalInvariantError(AssertionError):
    """An internal consistency check failed; indicates a solver bug."""


@dataclass(frozen=True)
class StudentRecord:
    """A student with an opaque id and the set of types they hold."""

    id: str
    type_set: frozenset[str]


class StudentColumns:
    """A student list in columns: the layout every Instance is built on.

    ids lists the students in file order; group_index holds, per student,
    the index of their type combination in group_keys, the sorted table of
    the combinations that occur. Students of one combination are
    interchangeable, so nothing downstream needs more than these columns.
    The id index is built on first use, once for every instance that shares
    the columns. records is a boundary view for callers that pass or ask for
    StudentRecords; nothing in the package reads it. Build columns with
    intern() or from_records(); the constructor trusts its arguments.
    """

    def __init__(
        self, ids: Sequence[str], group_index: array, group_keys: Sequence[GroupKey]
    ) -> None:
        self.ids: tuple[str, ...] = tuple(ids)
        self.group_index = group_index
        self.group_keys: tuple[GroupKey, ...] = tuple(group_keys)

    @classmethod
    def intern(
        cls, ids: Sequence[str], types: Iterable[Hashable]
    ) -> StudentColumns:
        """Columns from each student's types, one dict lookup per student.

        types yields one hashable collection of type names per student (a
        tuple of a file's list, a record's frozenset). Equal collections
        share a slot; slots naming one combination merge into one group.
        """
        slots: defaultdict[Hashable, int] = defaultdict(count().__next__)
        column = array("I", map(slots.__getitem__, types))
        return cls.from_slots(ids, column, slots)

    @classmethod
    def from_slots(
        cls, ids: Sequence[str], column: array, slots: Iterable[Hashable]
    ) -> StudentColumns:
        """Columns from a slot column: student i holds the type names of
        slots[column[i]], slots being the distinct collections in order of
        first use (intern fills them from collections; the file loader from
        the distinct types arrays between two ids, decoded once each)."""
        canonical = [tuple(sorted(set(slot))) for slot in slots]
        keys = sorted(set(canonical))
        where = {key: g for g, key in enumerate(keys)}
        remap = [where[key] for key in canonical]
        if remap != list(range(len(remap))):
            column = _remapped(column, remap)
        return cls(ids, column, keys)

    @classmethod
    def from_records(cls, records: Sequence[StudentRecord]) -> StudentColumns:
        """Columns of records, which become the columns' records view."""
        records = tuple(records)
        columns = cls.intern(
            list(map(attrgetter("id"), records)), map(attrgetter("type_set"), records)
        )
        columns.records = records
        return columns

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def index(self) -> dict[str, int]:
        """Student id to file position (the last one, if ids repeat)."""
        return dict(zip(self.ids, range(len(self.ids))))

    @cached_property
    def records(self) -> tuple[StudentRecord, ...]:
        """One StudentRecord per student, in file order."""
        held = [frozenset(key) for key in self.group_keys]
        return tuple(
            map(StudentRecord, self.ids, map(held.__getitem__, self.group_index))
        )

    def take(self, rows: Sequence[int]) -> StudentColumns:
        """The students at the given ascending file positions, with the
        group keys renumbered to the ones they hold."""
        group_index = self.group_index
        column = array("I", map(group_index.__getitem__, rows))
        present = sorted(set(column))
        if len(present) < len(self.group_keys):
            remap = dict(zip(present, range(len(present))))
            column = array("I", map(remap.__getitem__, column))
        return StudentColumns(
            list(map(self.ids.__getitem__, rows)),
            column,
            [self.group_keys[g] for g in present],
        )


def _remapped(column: array, remap: list[int]) -> array:
    """The column with each value v replaced by remap[v].

    With at most 256 slots every value and its image fit in one byte, the
    lowest of each item: those bytes are picked out, translated and put
    back in a zeroed copy, all by slicing and bytes.translate, with no
    Python call per student.
    """
    if len(remap) > 256:
        return array(column.typecode, map(remap.__getitem__, column))
    size = column.itemsize
    low = 0 if sys.byteorder == "little" else size - 1
    table = bytes(remap) + bytes(256 - len(remap))
    wide = bytearray(len(column) * size)
    wide[low::size] = column.tobytes()[low::size].translate(table)
    return array(column.typecode, wide)


class FixedPart:
    """What an instance and every Pool of it share.

    A pool keeps the instance's capacity, types and quotas and a subset of
    its groups, so whatever is laid out here over all of the instance's
    group keys is computed once per instance, not once per pool. model
    keeps the key table here; flow keeps the instance's type lattice in
    `lattice` (model does not import flow).
    """

    __slots__ = ("group_keys", "lattice")

    def __init__(self, group_keys: tuple[GroupKey, ...]) -> None:
        self.group_keys = group_keys
        self.lattice: Any = None


@dataclass(frozen=True)
class Group:
    """All students sharing one exact type combination.

    members are ordered by descending priority, so members[:k] are always the
    k highest-priority students of the group.
    """

    key: GroupKey
    members: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class Instance:
    """A single-school selection instance (students, capacity, priority, quotas).

    quotas maps (type, rank) to a non-negative seat count. The general type is
    implicit: q seats at rank max_rank, available to everyone. max_rank is
    derived as one past the largest quota rank (1 when there are no quotas).

    Students are held in columns (see StudentColumns): ids in file order, one
    group index per student and the sorted table of group keys, and every
    engine path reads them there. students may be given as StudentRecords,
    which are turned into columns, or as StudentColumns, which a loader or
    the generator fills without making a record per student. The students
    view of records is a boundary view for record-taking callers.
    Validation keeps the file row of each priority position (priority_rows());
    every other index, the priority positions of each group among them, is
    built on first use, not by the constructor, so an instance that is
    loaded and never solved costs one pass over its priority. fixed is
    shared with every Pool of the instance (see FixedPart).
    """

    def __init__(
        self,
        students: Sequence[StudentRecord] | StudentColumns,
        capacity: int,
        priority: Sequence[str],
        types: Iterable[str],
        quotas: Mapping[tuple[str, int], int],
    ) -> None:
        if not isinstance(students, StudentColumns):
            students = StudentColumns.from_records(students)
        self.columns = students
        self.capacity = int(capacity)
        self.priority: tuple[str, ...] = tuple(priority)
        self.types: frozenset[str] = frozenset(types)
        self.quotas: dict[tuple[str, int], int] = dict(quotas)
        self.fixed = FixedPart(students.group_keys)
        self._validate()

    def _validate(self) -> None:
        if self.capacity < 0:
            raise MalformedInstanceError("capacity must be non-negative")
        columns = self.columns
        if len(columns.index) != len(columns):
            raise MalformedInstanceError("duplicate student id")
        if GENERAL_TYPE in self.types:
            raise MalformedInstanceError(
                f"type name {GENERAL_TYPE!r} is reserved for the general type"
            )
        # a group label joins its types with "+" and names the untyped
        # group "none" (see group_label), so neither may be part of a type
        for t in sorted(self.types):
            if t == "none" or "+" in t:
                raise MalformedInstanceError(
                    f"type name {t!r} would make group labels ambiguous "
                    "(\"none\" and \"+\" are reserved)"
                )
        # the file row of each priority id: n rows, n distinct, all known
        rows = list(map(columns.index.get, self.priority))
        marked = set(rows)
        if len(rows) != len(columns) or len(marked) != len(rows) or None in marked:
            raise MalformedInstanceError(
                "priority must be a permutation of all student ids"
            )
        self._rows = array("I", rows)
        unknown = {
            g for g, key in enumerate(columns.group_keys)
            if not self.types.issuperset(key)
        }
        if unknown:
            row = next(i for i, g in enumerate(columns.group_index) if g in unknown)
            extra = set(columns.group_keys[columns.group_index[row]]) - self.types
            raise MalformedInstanceError(
                f"student {columns.ids[row]!r} references unknown types "
                f"{sorted(extra)}"
            )
        reserved = set(chain.from_iterable(columns.group_keys))
        if len(reserved) > MAX_RESERVED_TYPES:
            raise MalformedInstanceError(
                f"students hold {len(reserved)} reserved types, more than "
                f"{MAX_RESERVED_TYPES}"
            )
        for (t, rank), count in self.quotas.items():
            if t not in self.types:
                raise MalformedInstanceError(f"quota for unknown type {t!r}")
            if rank < 1:
                raise MalformedInstanceError("quota ranks start at 1")
            if rank >= MAX_RANKS:
                raise MalformedInstanceError(
                    f"quota ranks must be below {MAX_RANKS}"
                )
            if count < 0:
                raise MalformedInstanceError("quota counts must be non-negative")

    @property
    def students(self) -> tuple[StudentRecord, ...]:
        """One StudentRecord per student in file order: a boundary view,
        built on first use."""
        return self.columns.records

    @property
    def max_rank(self) -> int:
        """Largest rank, including the general-seat rank."""
        if not self.quotas:
            return 1
        return 1 + max(rank for (_t, rank) in self.quotas)

    @cached_property
    def _rank(self) -> array:
        """The priority position of each file row, built on first use."""
        rank = array("I", [0]) * len(self._rows)
        for p, row in enumerate(self._rows):
            rank[row] = p
        return rank

    @cached_property
    def _positions(self) -> list[list[int]]:
        """The bucket pass: one walk of the file rows in priority order
        drops each priority position into its group's bucket (read through a
        list view of the group-index column: an array makes an int per read)."""
        group_index = self.columns.group_index.tolist()
        positions: list[list[int]] = [[] for _ in self.columns.group_keys]
        into = [bucket.append for bucket in positions]
        for p, g in enumerate(map(group_index.__getitem__, self._rows)):
            into[g](p)
        return positions

    @cached_property
    def _groups(self) -> tuple[Group, ...]:
        return tuple(build_groups(self))

    def groups(self) -> tuple[Group, ...]:
        """Groups in lexicographic key order."""
        return self._groups

    def group_keys(self) -> tuple[GroupKey, ...]:
        """The key of each group in lexicographic order, aligned with
        groups() and member_positions()."""
        return self.columns.group_keys

    def member_positions(self) -> list[list[int]]:
        """Ascending priority positions of each group's members, aligned with
        groups(); shared, so callers slice them and never write to them."""
        return self._positions

    def ranks_of(self, ids: Iterable[str]) -> Iterator[int]:
        """The priority position of each id, read through the id index and
        the rank array; an unknown id raises KeyError."""
        return map(self._rank.__getitem__, map(self.columns.index.__getitem__, ids))

    def priority_rows(self) -> array:
        """The file row of each student in priority order; shared, so
        callers never write to it."""
        return self._rows

    def row_ranks(self) -> array:
        """The priority position of each file row, the inverse of
        priority_rows(); shared, so callers never write to it."""
        return self._rank

    def group_of(self, student_id: str) -> GroupKey:
        columns = self.columns
        return columns.group_keys[columns.group_index[columns.index[student_id]]]


def build_groups(instance: Instance) -> list[Group]:
    """Partition students into groups by exact type set.

    Each group's members are read off its bucket of priority positions (see
    Instance.member_positions), so they come out in descending priority; the
    groups come out in the sorted order of the group-key table.
    """
    priority = instance.priority
    return [
        Group(key=key, members=tuple(map(priority.__getitem__, positions)))
        for key, positions in zip(instance.group_keys(), instance.member_positions())
    ]


def restrict_instance(instance: Instance, keep: Iterable[str]) -> Instance:
    """The instance cut down to the students in keep: their columns in file
    order and the priority at their positions (see priority_ranks), as a
    validated instance with its own fixed part, whose lattice covers only
    the types they hold (no other type changes a check, cut or s*)."""
    ranks = priority_ranks(instance, keep)
    rows = sorted(map(instance.priority_rows().__getitem__, ranks))
    return Instance(
        instance.columns.take(rows),
        instance.capacity,
        list(map(instance.priority.__getitem__, ranks)),
        instance.types,
        instance.quotas,
    )


def priority_ranks(instance: Instance, ids: Iterable[str]) -> list[int]:
    """The ascending priority positions of a set of ids.

    The ids are checked against the instance's id index, so an unknown one
    raises KeyError, and mapped to their positions through the rank array.
    """
    index = instance.columns.index
    chosen = set(ids)
    unknown = chosen.difference(index)
    if unknown:
        raise KeyError(f"unknown student ids: {sorted(unknown)}")
    return sorted(instance.ranks_of(chosen))


class Pool:
    """Some of an instance's students, held as ascending positions of its
    priority, with no Instance, priority tuple or columns of their own.

    A pool reads as an instance does where a choice reads one (see
    flow.choose_pool): group_keys() gives the keys of the groups with a
    member in the pool, in key order, aligned with member_positions(), each
    such group's members as ascending positions of the instance's priority;
    fixed, capacity, types, quotas and max_rank are the instance's. The
    position lists are the caller's: the pool reads them and never writes
    to them.
    """

    __slots__ = ("fixed", "capacity", "types", "quotas", "_keys", "_positions")

    def __init__(
        self,
        instance: Instance,
        keys: Sequence[GroupKey],
        positions: Sequence[list[int]],
    ) -> None:
        self.fixed = instance.fixed
        self.capacity = instance.capacity
        self.types = instance.types
        self.quotas = instance.quotas
        self._keys = keys
        self._positions = positions

    max_rank = Instance.max_rank

    def group_keys(self) -> Sequence[GroupKey]:
        return self._keys

    def member_positions(self) -> Sequence[list[int]]:
        return self._positions


def group_label(key: GroupKey) -> str:
    """Serialize a group key; the empty combination gets the token "none"."""
    return "+".join(key) if key else "none"


def parse_group_label(label: str) -> GroupKey:
    if label == "none":
        return ()
    return tuple(sorted(label.split("+")))


def selection_flags(instance: Instance, selected: Iterable[str]) -> bytearray:
    """One flag per file row, set for each selected student.

    The ids are mapped to rows in one pass over the id index, which also
    finds unknown ids: they raise KeyError. Repeated ids set one flag.
    """
    columns = instance.columns
    ids = list(selected)
    rows = list(map(columns.index.get, ids))
    if None in rows:
        unknown = {sid for sid, row in zip(ids, rows) if row is None}
        raise KeyError(f"unknown student ids: {sorted(unknown)}")
    flags = bytearray(len(columns))
    for row in rows:
        flags[row] = 1
    return flags


def flagged_group_counts(
    instance: Instance, flags: bytearray
) -> dict[GroupKey, int]:
    """Count flagged students (see selection_flags) per group."""
    columns = instance.columns
    tally = Counter(compress(columns.group_index, flags))
    return {key: tally[g] for g, key in enumerate(columns.group_keys)}


def selection_ratio(matched_in_group: int, group_size: int) -> Ratio:
    """Fraction of a group's students that were selected."""
    if group_size < 1:
        raise ValueError("groups are induced by students and are never empty")
    if not 0 <= matched_in_group <= group_size:
        raise ValueError("matched count out of range")
    return Fraction(matched_in_group, group_size)


def min_count_ratio(
    instance: Instance | Pool, counts: Mapping[GroupKey, int]
) -> Ratio:
    """Minimum selection ratio of per-group counts; 0/1 when there are no groups."""
    return min(
        (
            selection_ratio(counts[key], len(positions))
            for key, positions in zip(
                instance.group_keys(), instance.member_positions()
            )
        ),
        default=Fraction(0),
    )


@dataclass(frozen=True)
class ChoiceResult:
    """Output of the balanced choice function plus audit data: the
    selection's per-group counts, its signature s*, alpha and the targets
    the walk started from."""

    selected: frozenset[str]
    per_group_counts: dict[GroupKey, int] = field(compare=False)
    signature: Signature = field(compare=False)
    alpha: Ratio = field(compare=False)
    targets: dict[GroupKey, int] = field(compare=False)

    def __post_init__(self) -> None:
        if sum(self.per_group_counts.values()) != len(self.selected):
            raise InternalInvariantError("per-group counts do not sum to |selected|")
