"""Multi-school selection: induced instances, deferred acceptance, probes.

Each round, every unmatched student proposes to their best school that has
not rejected them yet; each school re-applies the balanced choice function
to its held students plus the new proposers. Rejections are permanent, so
every (student, school) proposal happens at most once and the loop ends.

A MultiInstance turns the shared student list into columns once and keeps
each school's validated Instance over them; pools and probes restrict it,
and its indexes are built on first use, so keeping it is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import flow
from .model import (
    Instance,
    InternalInvariantError,
    MalformedInstanceError,
    StudentColumns,
    StudentRecord,
    restrict_instance,
)


@dataclass(frozen=True)
class School:
    """One school: capacity, full priority order, ranked quotas."""

    id: str
    capacity: int
    priority: tuple[str, ...]
    quotas: dict[tuple[str, int], int]


class MultiInstance:
    """Students with preference lists over schools sharing one type universe.

    students may be StudentRecords or StudentColumns, as for Instance; every
    school's instance shares the one set of columns, and students is a
    boundary view of records, as Instance.students is.
    """

    def __init__(
        self,
        students: Sequence[StudentRecord] | StudentColumns,
        types: Iterable[str],
        schools: Sequence[School],
        preferences: Mapping[str, Sequence[str]],
    ) -> None:
        if not isinstance(students, StudentColumns):
            students = StudentColumns.from_records(students)
        self.columns = students
        self.types: frozenset[str] = frozenset(types)
        self.schools: tuple[School, ...] = tuple(schools)
        self.preferences: dict[str, tuple[str, ...]] = {
            sid: tuple(prefs) for sid, prefs in preferences.items()
        }
        self.student_ids: frozenset[str] = frozenset(self.columns.ids)
        self._validate()
        # each school must form a coherent single-school instance over all
        # students; this also checks priorities, quota ranks and type names
        self.instances: dict[str, Instance] = {}
        for c in self.schools:
            try:
                self.instances[c.id] = Instance(
                    self.columns, c.capacity, c.priority, self.types, c.quotas
                )
            except MalformedInstanceError as err:
                raise MalformedInstanceError(f"school {c.id!r}: {err}") from err

    @property
    def students(self) -> tuple[StudentRecord, ...]:
        """One StudentRecord per student in file order: a boundary view,
        built on first use."""
        return self.columns.records

    def _validate(self) -> None:
        school_ids = [c.id for c in self.schools]
        if len(set(school_ids)) != len(school_ids):
            raise MalformedInstanceError("duplicate school id")
        known_schools = set(school_ids)
        known_students = self.student_ids
        if len(known_students) != len(self.columns):
            raise MalformedInstanceError("duplicate student id")
        for sid, prefs in self.preferences.items():
            if sid not in known_students:
                raise MalformedInstanceError(f"preferences for unknown student {sid!r}")
            if len(set(prefs)) != len(prefs):
                raise MalformedInstanceError(f"student {sid!r} repeats a school")
            unknown = set(prefs) - known_schools
            if unknown:
                raise MalformedInstanceError(
                    f"student {sid!r} ranks unknown schools {sorted(unknown)}"
                )

    def preference_list(self, student_id: str) -> tuple[str, ...]:
        return self.preferences.get(student_id, ())


def induced_instance(
    multi: MultiInstance, school_id: str, applicants: Iterable[str]
) -> Instance:
    """Single-school instance of one school restricted to an applicant pool."""
    return restrict_instance(multi.instances[school_id], applicants)


@dataclass(frozen=True)
class RoundTrace:
    """What happened in one proposal round.

    proposals lists the new proposers per school, pools the full applicant
    set each proposing school evaluated, selected the held students after
    the round (all schools), rejected the students turned away this round.
    """

    number: int
    proposals: dict[str, tuple[str, ...]]
    pools: dict[str, tuple[str, ...]]
    selected: dict[str, tuple[str, ...]]
    rejected: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class MultiMatching:
    """Final assignment plus the per-round audit trace."""

    assignment: dict[str, Optional[str]]
    per_school: dict[str, frozenset[str]]
    rounds: tuple[RoundTrace, ...]


def run_gda(multi: MultiInstance) -> MultiMatching:
    """Generalized deferred acceptance with the balanced choice function."""
    held: dict[str, frozenset[str]] = {c.id: frozenset() for c in multi.schools}
    selected: dict[str, tuple[str, ...]] = {cid: () for cid in held}
    # a student's refusals are a prefix of their list, so the count says where
    # they propose next; only last round's rejected students propose again
    refusals = dict.fromkeys(multi.student_ids, 0)
    order = sorted(held)
    rounds: list[RoundTrace] = []
    limit = len(multi.columns) * len(multi.schools) + 1
    movers = list(multi.columns.ids)
    while True:
        proposals: dict[str, list[str]] = {}
        for sid in movers:
            prefs = multi.preference_list(sid)
            if refusals[sid] < len(prefs):
                proposals.setdefault(prefs[refusals[sid]], []).append(sid)
        if not proposals:
            break
        if len(rounds) >= limit:
            raise InternalInvariantError("proposal rounds exceeded |S| * |C|")
        pools: dict[str, tuple[str, ...]] = {}
        rejected: dict[str, tuple[str, ...]] = {}
        for cid in order:
            if cid not in proposals:
                continue
            pool = held[cid] | set(proposals[cid])
            sub = induced_instance(multi, cid, pool)
            chosen = flow.choice_flow(sub).selected
            pools[cid] = sub.priority
            rejected[cid] = tuple(sid for sid in sub.priority if sid not in chosen)
            for sid in rejected[cid]:
                refusals[sid] += 1
            held[cid] = chosen
            selected[cid] = tuple(sorted(chosen))
        rounds.append(
            RoundTrace(
                number=len(rounds) + 1,
                proposals={
                    cid: tuple(sorted(proposals[cid])) for cid in sorted(proposals)
                },
                pools=pools,
                selected=dict(selected),
                rejected=rejected,
            )
        )
        movers = [sid for out in rejected.values() for sid in out]
    assignment: dict[str, Optional[str]] = dict.fromkeys(multi.columns.ids)
    for cid, chosen in held.items():
        for sid in chosen:
            assignment[sid] = cid
    return MultiMatching(
        assignment=assignment, per_school=dict(held), rounds=tuple(rounds)
    )


@dataclass(frozen=True)
class SubstitutabilityViolation:
    """s2 was rejected from the smaller pool yet selected from the larger."""

    s1: str
    s2: str
    without_s1: frozenset[str]
    with_s1: frozenset[str]


def substitutability_probe(
    instance: Instance, base: Iterable[str], s1: str, s2: str
) -> Optional[SubstitutabilityViolation]:
    """Test the monotone-rejection property on one (base, s1, s2) triple."""
    pool = set(base)
    if s1 in pool or s2 in pool or s1 == s2:
        raise ValueError("s1 and s2 must be distinct students outside the base set")
    small = flow.choice_flow(restrict_instance(instance, pool | {s2})).selected
    large = flow.choice_flow(restrict_instance(instance, pool | {s1, s2})).selected
    if s2 not in small and s2 in large:
        return SubstitutabilityViolation(
            s1=s1, s2=s2, without_s1=small, with_s1=large
        )
    return None
