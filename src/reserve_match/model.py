"""Core problem model: instances, groups, signatures, ratios and matching checks.

An instance bundles a student pool, a school capacity q, a strict priority
order, a set of types and ranked quotas. Students holding the same set of
types form a group and are interchangeable with respect to reserved seats,
which is what most of the algorithms in this package exploit.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import attrgetter
from typing import Any, Hashable, Iterable, Mapping, Sequence

# Reserved name for the implicit general type. Every student holds it and it
# receives q seats at the largest rank; instance files must never mention it.
GENERAL_TYPE = "t0"

# Quota ranks must stay below this. Seat costs are (q+1)^(r-1) and the flow
# network has (T+1)*r seat classes, so larger ranks make a solve crawl.
MAX_RANKS = 100

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
        canonical = [tuple(sorted(set(slot))) for slot in slots]
        keys = sorted(set(canonical))
        where = {key: g for g, key in enumerate(keys)}
        remap = [where[key] for key in canonical]
        if remap != list(range(len(remap))):
            column = array("I", map(remap.__getitem__, column))
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

    def take(
        self, rows: Sequence[int], order: Sequence[int]
    ) -> tuple[StudentColumns, array]:
        """The students at the given ascending file positions, and the group
        index of the same rows listed in another order, numbered like the
        cut's group keys."""
        group_index = self.group_index
        column = array("I", map(group_index.__getitem__, rows))
        ordered = array("I", map(group_index.__getitem__, order))
        present = sorted(set(column))
        if len(present) < len(self.group_keys):
            remap = dict(zip(present, range(len(present))))
            column = array("I", map(remap.__getitem__, column))
            ordered = array("I", map(remap.__getitem__, ordered))
        cut = StudentColumns(
            list(map(self.ids.__getitem__, rows)),
            column,
            [self.group_keys[g] for g in present],
        )
        return cut, ordered


class FixedPart:
    """What an instance derives from its capacity, types and quotas alone.

    An instance and every restriction of it share one FixedPart, so what
    is kept here is computed once per instance, not once per pool. model
    keeps nothing here itself: flow keeps the fixed part of its network in
    `network` (model does not import flow).
    """

    __slots__ = ("network",)

    def __init__(self) -> None:
        self.network: Any = None


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
    view of records is a boundary view for record-taking callers. The
    indexes behind groups(), member_positions() and group_of() are built on
    first use, not by the constructor; priority_rows() is kept from
    validation. fixed is shared with every restriction (see FixedPart).
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
        self.fixed = FixedPart()
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
        # the file row of each priority id; the set marks each row once
        rows = list(map(columns.index.get, self.priority))
        if len(rows) != len(columns) or None in rows or len(set(rows)) != len(rows):
            raise MalformedInstanceError(
                "priority must be a permutation of all student ids"
            )
        # the file row and the group index of each student in priority order
        # (restrict_instance hands each cut its own group column)
        self._rows = array("I", rows)
        self._ranked = array("I", map(columns.group_index.__getitem__, rows))
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
    def _rows(self) -> array:
        """The file row of each priority position. _validate fills it in; a
        cut (see restrict_instance) builds it on first use."""
        return array("I", map(self.columns.index.__getitem__, self.priority))

    @cached_property
    def _rank(self) -> array:
        """The priority position of each file row, built once for every
        restriction of this instance (see restrict_instance)."""
        rank = array("I", [0]) * len(self._rows)
        for p, row in enumerate(self._rows):
            rank[row] = p
        return rank

    @cached_property
    def _positions(self) -> list[list[int]]:
        """The bucket pass: one walk of the group-index column in priority
        order drops every priority position into its group's bucket."""
        positions: list[list[int]] = [[] for _ in self.columns.group_keys]
        into = [bucket.append for bucket in positions]
        for p, g in enumerate(self._ranked):
            into[g](p)
        return positions

    @cached_property
    def _groups(self) -> tuple[Group, ...]:
        return tuple(build_groups(self))

    def groups(self) -> tuple[Group, ...]:
        """Groups in lexicographic key order."""
        return self._groups

    def member_positions(self) -> list[list[int]]:
        """Ascending priority positions of each group's members, aligned with
        groups(); shared, so callers slice them and never write to them."""
        return self._positions

    def priority_rows(self) -> array:
        """The file row of each student in priority order; shared, so
        callers never write to it."""
        return self._rows

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
    # tuple() of a list, not of a map: a tuple grown from an iterator is freed
    # into the free list of its final size but taken from another, so the
    # interpreter's small-tuple free lists would fill up over many pools
    return [
        Group(key=key, members=tuple(list(map(priority.__getitem__, positions))))
        for key, positions in zip(
            instance.columns.group_keys, instance.member_positions()
        )
    ]


def restrict_instance(instance: Instance, keep: Iterable[str]) -> Instance:
    """The same instance with the student set cut down to keep.

    The kept rows are ordered by the instance's rank array, so a cut of k
    students costs O(k log k) and never walks the full priority list. The
    columns are cut, not validated again: every check of Instance._validate
    holds for a subset of a valid instance's students. The cut gets its
    priority-order group column from the same pass and shares the
    instance's fixed part.
    """
    chosen = set(keep)
    columns = instance.columns
    index = columns.index
    unknown = chosen.difference(index)
    if unknown:
        raise KeyError(f"unknown student ids: {sorted(unknown)}")
    rows = sorted(map(index.__getitem__, chosen))
    ranked_rows = sorted(rows, key=instance._rank.__getitem__)
    cut = object.__new__(Instance)
    cut.columns, cut._ranked = columns.take(rows, ranked_rows)
    cut.capacity = instance.capacity
    cut.priority = tuple(list(map(columns.ids.__getitem__, ranked_rows)))
    cut.types = instance.types
    cut.quotas = dict(instance.quotas)
    cut.fixed = instance.fixed
    return cut


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


def group_counts(instance: Instance, selected: Iterable[str]) -> dict[GroupKey, int]:
    """Count selected students per group; unknown ids raise KeyError."""
    return flagged_group_counts(instance, selection_flags(instance, selected))


@dataclass(frozen=True, order=True)
class Seat:
    """One reserved seat: a (type, rank) class plus a 1-based copy index.

    General seats use type GENERAL_TYPE at the instance's largest rank.
    """

    type: str
    rank: int
    index: int


# A matching assigns each matched student at most one seat and vice versa.
SeatMatching = dict[str, Seat]


def matching_signature(instance: Instance, matching: SeatMatching) -> Signature:
    """Per-rank matched-seat counts, the object compared lexicographically."""
    sig = [0] * instance.max_rank
    for seat in matching.values():
        sig[seat.rank - 1] += 1
    return tuple(sig)


def check_matching(instance: Instance, matching: SeatMatching) -> None:
    """Raise ValueError unless the matching is well-formed for the instance.

    Checks seat uniqueness, type compatibility, rank/index bounds against the
    quota for the seat's class, and the overall size cap q.
    """
    if len(matching) > instance.capacity:
        raise ValueError("matching exceeds capacity")
    seen: set[Seat] = set()
    for sid, seat in matching.items():
        held = instance.group_of(sid)
        if seat in seen:
            raise ValueError(f"seat {seat} assigned twice")
        seen.add(seat)
        if seat.type == GENERAL_TYPE:
            if seat.rank != instance.max_rank:
                raise ValueError("general seats live at the largest rank")
            cap = instance.capacity
        else:
            if seat.type not in held:
                raise ValueError(f"student {sid!r} lacks type {seat.type!r}")
            if not 1 <= seat.rank <= instance.max_rank:
                raise ValueError("seat rank out of range")
            cap = instance.quotas.get((seat.type, seat.rank), 0)
        if not 1 <= seat.index <= cap:
            raise ValueError(
                f"seat index {seat.index} outside quota for {seat.type}^{seat.rank}"
            )


A_STRICTLY_BETTER = 1
EQUAL = 0
B_STRICTLY_BETTER = -1


def lex_compare(a: Signature, b: Signature) -> int:
    """Compare two signatures lexicographically.

    Returns A_STRICTLY_BETTER (1), EQUAL (0) or B_STRICTLY_BETTER (-1).
    """
    if len(a) != len(b):
        raise ValueError(f"signature length mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x > y:
            return A_STRICTLY_BETTER
        if x < y:
            return B_STRICTLY_BETTER
    return EQUAL


def selection_ratio(matched_in_group: int, group_size: int) -> Ratio:
    """Fraction of a group's students that were selected."""
    if group_size < 1:
        raise ValueError("groups are induced by students and are never empty")
    if not 0 <= matched_in_group <= group_size:
        raise ValueError("matched count out of range")
    return Fraction(matched_in_group, group_size)


def min_count_ratio(instance: Instance, counts: Mapping[GroupKey, int]) -> Ratio:
    """Minimum selection ratio of per-group counts; 0/1 when there are no groups."""
    return min(
        (selection_ratio(counts[g.key], g.size) for g in instance.groups()),
        default=Fraction(0),
    )


@dataclass(frozen=True)
class ChoiceResult:
    """Output of the balanced choice function plus audit data."""

    selected: frozenset[str]
    per_group_counts: dict[GroupKey, int] = field(compare=False)
    signature: Signature = field(compare=False)
    alpha: Ratio = field(compare=False)
    targets: dict[GroupKey, int] = field(compare=False)

    def __post_init__(self) -> None:
        if sum(self.per_group_counts.values()) != len(self.selected):
            raise InternalInvariantError("per-group counts do not sum to |selected|")
