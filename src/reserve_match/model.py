"""Core problem model: instances, groups, signatures, ratios and basic verifiers.

An instance bundles a student pool, a school capacity q, a strict priority
order, a set of types and ranked quotas. Students holding the same set of
types form a group and are interchangeable with respect to reserved seats,
which is what most of the algorithms in this package exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

# Reserved name for the implicit general type. Every student holds it and it
# receives q seats at the largest rank; instance files must never mention it.
GENERAL_TYPE = "t0"

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
    """

    def __init__(
        self,
        students: Sequence[StudentRecord],
        capacity: int,
        priority: Sequence[str],
        types: Iterable[str],
        quotas: Mapping[tuple[str, int], int],
    ) -> None:
        self.students: tuple[StudentRecord, ...] = tuple(students)
        self.capacity = int(capacity)
        self.priority: tuple[str, ...] = tuple(priority)
        self.types: frozenset[str] = frozenset(types)
        self.quotas: dict[tuple[str, int], int] = dict(quotas)
        self._validate()
        self.priority_index: dict[str, int] = {
            sid: i for i, sid in enumerate(self.priority)
        }
        self._groups: Optional[tuple[Group, ...]] = None
        self._group_of: Optional[dict[str, GroupKey]] = None
        self._by_id: dict[str, StudentRecord] = {s.id: s for s in self.students}

    def _validate(self) -> None:
        if self.capacity < 0:
            raise MalformedInstanceError("capacity must be non-negative")
        ids = [s.id for s in self.students]
        if len(set(ids)) != len(ids):
            raise MalformedInstanceError("duplicate student id")
        if GENERAL_TYPE in self.types:
            raise MalformedInstanceError(
                f"type name {GENERAL_TYPE!r} is reserved for the general type"
            )
        if sorted(self.priority) != sorted(ids):
            raise MalformedInstanceError(
                "priority must be a permutation of all student ids"
            )
        for s in self.students:
            extra = s.type_set - self.types
            if extra:
                raise MalformedInstanceError(
                    f"student {s.id!r} references unknown types {sorted(extra)}"
                )
        for (t, rank), count in self.quotas.items():
            if t not in self.types:
                raise MalformedInstanceError(f"quota for unknown type {t!r}")
            if rank < 1:
                raise MalformedInstanceError("quota ranks start at 1")
            if count < 0:
                raise MalformedInstanceError("quota counts must be non-negative")

    @property
    def max_rank(self) -> int:
        """Largest rank, including the general-seat rank."""
        if not self.quotas:
            return 1
        return 1 + max(rank for (_t, rank) in self.quotas)

    def groups(self) -> tuple[Group, ...]:
        """Groups in lexicographic key order, computed once and cached."""
        if self._groups is None:
            self._groups = tuple(build_groups(self))
        return self._groups

    def group_of(self, student_id: str) -> GroupKey:
        if self._group_of is None:
            self._group_of = {
                sid: g.key for g in self.groups() for sid in g.members
            }
        return self._group_of[student_id]

    def student_by_id(self, student_id: str) -> StudentRecord:
        return self._by_id[student_id]


def build_groups(instance: Instance) -> list[Group]:
    """Partition students into groups by exact type set.

    One walk of the priority order appends each student to its group, so
    members come out in descending priority; the groups themselves come out
    in lexicographic key order so downstream iteration is deterministic.
    """
    by_set: dict[frozenset[str], list[str]] = {}
    by_id = instance._by_id
    for sid in instance.priority:
        by_set.setdefault(by_id[sid].type_set, []).append(sid)
    by_key = {tuple(sorted(type_set)): ids for type_set, ids in by_set.items()}
    return [Group(key=key, members=tuple(by_key[key])) for key in sorted(by_key)]


def group_label(key: GroupKey) -> str:
    """Serialize a group key; the empty combination gets the token "none"."""
    return "+".join(key) if key else "none"


def parse_group_label(label: str) -> GroupKey:
    if label == "none":
        return ()
    return tuple(sorted(label.split("+")))


def group_counts(instance: Instance, selected: Iterable[str]) -> dict[GroupKey, int]:
    """Count selected students per group; unknown ids raise KeyError."""
    chosen = set(selected)
    known = {s.id for s in instance.students}
    unknown = chosen - known
    if unknown:
        raise KeyError(f"unknown student ids: {sorted(unknown)}")
    counts = {}
    for g in instance.groups():
        counts[g.key] = sum(1 for sid in g.members if sid in chosen)
    return counts


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


def matching_group_counts(
    instance: Instance, matching: SeatMatching
) -> dict[GroupKey, int]:
    return group_counts(instance, matching.keys())


def check_matching(instance: Instance, matching: SeatMatching) -> None:
    """Raise ValueError unless the matching is well-formed for the instance.

    Checks seat uniqueness, type compatibility, rank/index bounds against the
    quota for the seat's class, and the overall size cap q.
    """
    if len(matching) > instance.capacity:
        raise ValueError("matching exceeds capacity")
    seen: set[Seat] = set()
    for sid, seat in matching.items():
        student = instance.student_by_id(sid)
        if seat in seen:
            raise ValueError(f"seat {seat} assigned twice")
        seen.add(seat)
        if seat.type == GENERAL_TYPE:
            if seat.rank != instance.max_rank:
                raise ValueError("general seats live at the largest rank")
            cap = instance.capacity
        else:
            if seat.type not in student.type_set:
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


def min_selection_ratio(instance: Instance, selected: Iterable[str]) -> Ratio:
    """Minimum selection ratio over all groups; 0/1 when there are no groups."""
    counts = group_counts(instance, selected)
    ratios = [
        selection_ratio(counts[g.key], g.size) for g in instance.groups()
    ]
    return min(ratios) if ratios else Fraction(0)


def verify_non_wasteful(instance: Instance, selected: Iterable[str]) -> bool:
    """|selected| must equal min(|S|, q)."""
    counts = group_counts(instance, selected)
    total = sum(counts.values())
    return total == min(len(instance.students), instance.capacity)


def verify_same_group_priority(instance: Instance, selected: Iterable[str]) -> bool:
    """Within each group the selected students must form a priority prefix."""
    chosen = set(selected)
    known = {s.id for s in instance.students}
    if chosen - known:
        raise KeyError(f"unknown student ids: {sorted(chosen - known)}")
    for g in instance.groups():
        seen_gap = False
        for sid in g.members:
            if sid in chosen:
                if seen_gap:
                    return False
            else:
                seen_gap = True
    return True


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
