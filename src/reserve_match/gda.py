"""Multi-school selection: induced instances, deferred acceptance, probes.

Each round, every unmatched student proposes to their best school that has
not rejected them yet; each school re-applies the balanced choice function
to its held students plus the new proposers. Rejections are permanent, so
every (student, school) proposal happens at most once and the loop ends.

A MultiInstance turns the shared student list into columns once and keeps
each school's validated Instance over them. Validation keeps only each
school's file rows in priority order; the rest of a school's indexes are
built on first use: run_gda builds the rank array (each file row's
priority position) of the schools that get a proposal, and `gda --probe`
that of the probed school alone.

A school's held students are carried from round to round as one list per
group of ascending positions of the school's priority. Each new proposer
is mapped once from id to file row, and from the row to their priority
position (the school's rank array) and group (the shared group-index
column); they join their group's list, and only the lists that grew are
sorted again. A pool is those lists, as a model.Pool: no Instance,
priority tuple or id set is built for it. flow.choose_pool gives each
group's count, each list is cut back to its count, and the cut tails,
sorted and read off the priority, are the rejections. The held id sets
are built once, when the run ends. A round's work thus grows with the
groups, proposers and rejections of its pools, not with their sizes.

Every pool of a school, the probe's too, is checked on the school's type
lattice, laid out once and shared by all its pools (see
flow.build_network). Nothing else is carried from one choice to the next,
and the state of a run lives only inside one run_gda call.

A pool no larger than its school's capacity needs no choice: the balanced
choice is non-wasteful, so it takes the whole pool, and run_gda does so
without a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import eq
from typing import Iterable, Mapping, Optional, Sequence

from . import flow
from .model import (
    Instance,
    InternalInvariantError,
    MalformedInstanceError,
    Pool,
    StudentColumns,
    StudentRecord,
    priority_ranks,
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
        # the checks below in bulk; only a file that fails one is walked
        # student by student, to name its first offender
        lists = self.preferences.values()
        if (
            known_students.issuperset(self.preferences)
            and known_schools.issuperset(chain.from_iterable(lists))
            and all(map(eq, map(len, map(set, lists)), map(len, lists)))
        ):
            return
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

    proposals lists the new proposers per school, sorted; pools gives the
    size of the applicant pool each proposing school chose from; rejected
    lists the students each of those schools turned away this round, in its
    priority order. The pools and held sets themselves are not copied:
    a school's pool in round r is its held set after round r - 1 plus its
    round-r proposers, and its held set after round r is that pool minus
    its round-r rejections, every held set starting empty.
    """

    number: int
    proposals: dict[str, tuple[str, ...]]
    pools: dict[str, int]
    rejected: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class MultiMatching:
    """Final assignment, each school's held students, and the round trace
    from which every round's pools and held sets can be replayed."""

    assignment: dict[str, Optional[str]]
    per_school: dict[str, frozenset[str]]
    rounds: tuple[RoundTrace, ...]


def run_gda(multi: MultiInstance) -> MultiMatching:
    """Generalized deferred acceptance with the balanced choice function.

    Each round is traced by its proposals, pool sizes and rejections (see
    RoundTrace); the held sets live only in the run, and the final ones
    are per_school. A pool that fits its school's capacity is held whole,
    with no choice made and no one rejected.
    """
    columns = multi.columns
    index, group_index, keys = columns.index, columns.group_index, columns.group_keys
    # each school's held students: per group index (into the shared key
    # table), the ascending priority positions of the group's held members,
    # for the groups that hold one
    held: dict[str, dict[int, list[int]]] = {c.id: {} for c in multi.schools}
    # a student's refusals are a prefix of their list, so the count says where
    # they propose next; only last round's rejected students propose again
    refusals = dict.fromkeys(multi.student_ids, 0)
    order = sorted(held)
    rounds: list[RoundTrace] = []
    limit = len(columns) * len(multi.schools) + 1
    movers = list(columns.ids)
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
        pools: dict[str, int] = {}
        rejected: dict[str, tuple[str, ...]] = {}
        for cid in order:
            if cid not in proposals:
                continue
            school = multi.instances[cid]
            lists = held[cid]
            rank = school.row_ranks()
            # only the new proposers are mapped to positions; the held ones
            # carry theirs from the last choice
            grown = set()
            for row in map(index.__getitem__, proposals[cid]):
                g = group_index[row]
                lists.setdefault(g, []).append(rank[row])
                grown.add(g)
            for g in grown:
                lists[g].sort()
            size = pools[cid] = sum(map(len, lists.values()))
            if size <= school.capacity:
                # the choice is non-wasteful, so a pool that fits is taken
                # whole
                rejected[cid] = ()
                continue
            live = sorted(lists)
            take = flow.choose_pool(
                Pool(school, [keys[g] for g in live], [lists[g] for g in live])
            ).counts
            # each group keeps its first counts and rejects the tail
            out: list[int] = []
            for g in live:
                members, kept = lists[g], take[keys[g]]
                out += members[kept:]
                if kept:
                    del members[kept:]
                else:
                    del lists[g]
            out.sort()
            rejected[cid] = tuple(map(school.priority.__getitem__, out))
            for sid in rejected[cid]:
                refusals[sid] += 1
        rounds.append(
            RoundTrace(
                number=len(rounds) + 1,
                proposals={
                    cid: tuple(sorted(proposals[cid])) for cid in sorted(proposals)
                },
                pools=pools,
                rejected=rejected,
            )
        )
        movers = [sid for ids in rejected.values() for sid in ids]
    per_school = {
        cid: frozenset(
            map(
                multi.instances[cid].priority.__getitem__,
                chain.from_iterable(lists.values()),
            )
        )
        for cid, lists in held.items()
    }
    assignment: dict[str, Optional[str]] = dict.fromkeys(columns.ids)
    for cid, chosen in per_school.items():
        for sid in chosen:
            assignment[sid] = cid
    return MultiMatching(
        assignment=assignment, per_school=per_school, rounds=tuple(rounds)
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
    """Test the monotone-rejection property on one (base, s1, s2) triple.

    The larger pool's ids are mapped to priority positions once and
    bucketed by group, through the school's file rows in priority order and
    the group-index column; the smaller pool is it without s1's position.
    Each is chosen on as a model.Pool, as run_gda's pools are, on the
    school's type lattice.
    """
    pool = set(base)
    if s1 in pool or s2 in pool or s1 == s2:
        raise ValueError("s1 and s2 must be distinct students outside the base set")
    rows, group_index = instance.priority_rows(), instance.columns.group_index
    keys = instance.columns.group_keys
    large: dict[int, list[int]] = {}
    for p in priority_ranks(instance, pool | {s1, s2}):
        large.setdefault(group_index[rows[p]], []).append(p)
    dropped = instance.row_ranks()[instance.columns.index[s1]]
    home = group_index[rows[dropped]]
    small = {**large, home: [p for p in large[home] if p != dropped]}
    chosen = []
    for lists in (small, large):
        live = [g for g in sorted(lists) if lists[g]]
        cut = Pool(instance, [keys[g] for g in live], [lists[g] for g in live])
        counts = flow.choose_pool(cut).counts
        chosen.append(flow._selected(instance.priority, cut, counts))
    without_s1, with_s1 = chosen
    if s2 not in without_s1 and s2 in with_s1:
        return SubstitutabilityViolation(
            s1=s1, s2=s2, without_s1=without_s1, with_s1=with_s1
        )
    return None
