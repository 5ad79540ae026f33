"""Shared instance builders for the test suite, and a recorder of the
choices a block of code makes."""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import chain
from typing import Iterator

from reserve_match import Instance, StudentRecord, flow
from reserve_match.flow import PoolChoice
from reserve_match.gda import MultiInstance, School
from reserve_match.generator import generate_instance
from reserve_match.model import Pool, restrict_instance


def make_instance(
    students: list[tuple[str, list[str]]],
    capacity: int,
    priority: list[str],
    types: list[str],
    quotas: dict[tuple[str, int], int],
) -> Instance:
    """Thin convenience wrapper over the Instance constructor."""
    return Instance(
        students=[StudentRecord(sid, frozenset(held)) for sid, held in students],
        capacity=capacity,
        priority=priority,
        types=types,
        quotas=quotas,
    )


def two_group_school() -> Instance:
    """Four students, one privileged type, two seats, one rank-1 quota.

    The balanced selection is {s2, s4}: one student per group, ratio 1/2.
    """
    return make_instance(
        students=[("s1", ["t1"]), ("s2", ["t1"]), ("s3", []), ("s4", [])],
        capacity=2,
        priority=["s4", "s3", "s2", "s1"],
        types=["t1"],
        quotas={("t1", 1): 1},
    )


def four_block_school(group_size: int = 50) -> Instance:
    """Two overlapping types in four blocks of equal size.

    Priority runs block by block: students with neither type first, then
    only-t1, then only-t2, then both. Quotas reserve group_size // 2 seats
    per type at rank 1 and the capacity is two blocks' worth of students.
    """
    blocks = [
        ("u00", []),
        ("u10", ["t1"]),
        ("u01", ["t2"]),
        ("u11", ["t1", "t2"]),
    ]
    students = [
        (f"{name}_{i:03d}", held)
        for name, held in blocks
        for i in range(group_size)
    ]
    priority = [sid for sid, _held in students]
    quota = group_size // 2
    return make_instance(
        students=students,
        capacity=2 * group_size,
        priority=priority,
        types=["t1", "t2"],
        quotas={("t1", 1): quota, ("t2", 1): quota},
    )


def two_type_column_school(with_extra: bool = False) -> Instance:
    """Five t1 students over three t2 students, oversized rank-1 quotas.

    Capacity 4 with quotas of 4 per type makes the two reserved columns
    compete for the general seats; with_extra appends a sixth t1 student at
    the bottom of the priority order, which shifts the balanced ratio and
    flips who gets in.
    """
    t1_ids = ["s11", "s12", "s13", "s14", "s15"] + (["s16"] if with_extra else [])
    t2_ids = ["s21", "s22", "s23"]
    students = [(sid, ["t1"]) for sid in t1_ids] + [(sid, ["t2"]) for sid in t2_ids]
    return make_instance(
        students=students,
        capacity=4,
        priority=t1_ids + t2_ids,
        types=["t1", "t2"],
        quotas={("t1", 1): 4, ("t2", 1): 4},
    )


def displacement_trap_school() -> Instance:
    """Regression fixture: the balanced choice keeps each group's top student.

    No quotas, three general seats, four students in two groups. The
    balanced outcome is {s0, s1, s3}; a solver that moves students between
    seats and evicts the highest-priority eligible one first drops s0.
    """
    return make_instance(
        students=[("s0", []), ("s1", ["t1"]), ("s2", []), ("s3", ["t1"])],
        capacity=3,
        priority=["s3", "s1", "s0", "s2"],
        types=["t1"],
        quotas={},
    )


def baseline_overshoot_school() -> Instance:
    """A top-priority student whom no rank-maximal matching seats.

    c (type t2) comes first in priority, but its only reserved seats are at
    rank 2, while the best signature (2, 0, 0) fills both seats at rank 1
    with the t1 students. A walk that seats each student in turn on their
    best open seat takes c and misses that signature; a rank-maximal choice,
    the baseline included, passes over c, so its worst-off ratio is 0, as
    is the solver's max-min ratio.
    """
    return make_instance(
        students=[("c", ["t2"]), ("a1", ["t1"]), ("a2", ["t1"])],
        capacity=2,
        priority=["c", "a1", "a2"],
        types=["t1", "t2"],
        quotas={("t1", 1): 2, ("t2", 2): 5},
    )


def random_school(rng: random.Random, max_students: int = 10) -> Instance:
    """Small random instance inside the enumeration oracle's comfort zone."""
    num_students = rng.randint(0, max_students)
    num_types = rng.randint(1, 3)
    types = [f"t{i}" for i in range(1, num_types + 1)]
    students = []
    for index in range(num_students):
        held = frozenset(t for t in types if rng.random() < 0.45)
        students.append((f"s{index}", sorted(held)))
    priority = [sid for sid, _held in students]
    rng.shuffle(priority)
    capacity = rng.randint(0, 6)
    quotas: dict[tuple[str, int], int] = {}
    for t in types:
        for rank in (1, 2):
            if rng.random() < 0.6:
                quotas[(t, rank)] = rng.randint(1, max(1, capacity))
    return make_instance(
        students=students,
        capacity=capacity,
        priority=priority,
        types=types,
        quotas=quotas,
    )


def random_targets(rng: random.Random, instance: Instance) -> dict[tuple[str, ...], int]:
    """Random target vector over the instance's groups (possibly too greedy)."""
    targets = {}
    for group in instance.groups():
        if rng.random() < 0.8:
            targets[group.key] = rng.randint(0, group.size + 1)
    return targets


def hard_regime_school(
    num_students: int, seed: int, reserved_percent: int = 92
) -> Instance:
    """Generated students under rank-1 quotas that reserve most of q.

    Three types, q = half the students, and rank-1 quotas holding
    reserved_percent of q. The untyped group can then only take the general
    share, alpha stays small and the crucial targets fill well under q, so
    most admissions happen in the greedy walk after the targets are seeded.
    """
    base = generate_instance(num_students, 3, 1, seed)
    capacity = num_students // 2
    types = sorted(base.types)
    reserved = capacity * reserved_percent // 100
    quotas = {
        (t, 1): reserved // len(types) + (1 if i < reserved % len(types) else 0)
        for i, t in enumerate(types)
    }
    return Instance(base.students, capacity, base.priority, types, quotas)


def sparse_type_school(
    num_students: int, num_types: int, num_groups: int, seed: int
) -> Instance:
    """Many types in few groups: num_groups distinct random type
    combinations of num_types types (each type held with probability 1/2),
    every one of them held by at least one student, q = half the students
    and a random rank-1 quota per type.

    With 12 or more types in about 20 groups the type lattice has hundreds
    of sets per arc of the reserve network, the lattice's costliest shape;
    at 16 types it meets model.MAX_RESERVED_TYPES.
    """
    rng = random.Random(seed)
    types = [f"t{i:02d}" for i in range(1, num_types + 1)]
    keys: set[tuple[str, ...]] = set()
    while len(keys) < num_groups:
        keys.add(tuple(t for t in types if rng.random() < 0.5))
    ordered = sorted(keys)
    students = [
        (f"s{i:05d}", list(ordered[i] if i < num_groups else rng.choice(ordered)))
        for i in range(num_students)
    ]
    priority = [sid for sid, _held in students]
    rng.shuffle(priority)
    capacity = num_students // 2
    quotas = {
        (t, 1): rng.randint(1, max(1, 2 * capacity // num_types)) for t in types
    }
    return make_instance(students, capacity, priority, types, quotas)


def seeded_market(num_students: int, seed: int) -> MultiInstance:
    """Generated students in a 20-school market whose popular schools reject.

    Every school has its own shuffled priority, a rank-1 quota per type and
    seats for 80% of the students in total. Each student ranks 4 schools
    drawn with popularity falling as 1/sqrt(i + 1), so the first schools
    overflow and rejected students fall back over several rounds.
    """
    num_schools = 20
    base = generate_instance(num_students, 3, 1, seed)
    rng = random.Random(seed)
    ids = [s.id for s in base.students]
    types = sorted(base.types)
    capacity = num_students * 4 // 5 // num_schools
    schools = []
    for i in range(num_schools):
        priority = ids[:]
        rng.shuffle(priority)
        quotas = {(t, 1): capacity // (2 * len(types)) for t in types}
        schools.append(School(f"c{i:02d}", capacity, tuple(priority), quotas))
    names = [c.id for c in schools]
    popularity = [1.0 / (i + 1) ** 0.5 for i in range(num_schools)]
    preferences = {}
    for sid in ids:
        ranked: list[str] = []
        while len(ranked) < 4:
            pick = rng.choices(names, popularity)[0]
            if pick not in ranked:
                ranked.append(pick)
        preferences[sid] = ranked
    return MultiInstance(base.students, types, schools, preferences)


def market_payload(multi: MultiInstance) -> dict:
    """A MultiInstance as a multi-school file payload."""
    keys = multi.columns.group_keys
    return {
        "types": sorted(multi.types),
        "students": [
            {"id": sid, "types": list(keys[g])}
            for sid, g in zip(multi.columns.ids, multi.columns.group_index)
        ],
        "schools": [
            {
                "id": c.id,
                "capacity": c.capacity,
                "quotas": [
                    {"type": t, "rank": rank, "quota": count}
                    for (t, rank), count in sorted(c.quotas.items())
                ],
                "priority": list(c.priority),
            }
            for c in multi.schools
        ],
        "preferences": {sid: list(p) for sid, p in multi.preferences.items()},
    }


@contextmanager
def recorded_choices() -> Iterator[list[tuple[Pool, PoolChoice]]]:
    """Record every choice made inside the block at flow.choose_pool, which
    choice_flow and run_gda both call: a copy of its pool (a run cuts the
    pool's lists back after the choice) and what it chose."""
    made: list[tuple[Pool, PoolChoice]] = []
    choose = flow.choose_pool

    def recorded(pool, *args, **kwargs):
        copy = Pool(
            pool, tuple(pool.group_keys()), [list(p) for p in pool.member_positions()]
        )
        result = choose(pool, *args, **kwargs)
        made.append((copy, result))
        return result

    flow.choose_pool = recorded
    try:
        yield made
    finally:
        flow.choose_pool = choose


def chosen_ids(
    school: Instance, pool: Pool, choice: PoolChoice
) -> frozenset[str]:
    """The ids a recorded choice on a pool of the school selects: each
    group's first counts[key] positions, read off the school's priority."""
    return frozenset(
        school.priority[p]
        for key, members in zip(pool.group_keys(), pool.member_positions())
        for p in members[: choice.counts[key]]
    )


def pool_cut(multi: MultiInstance, pool: Pool) -> Instance:
    """A market pool as an Instance: cut from its school's instance by the
    ids at the pool's priority positions (model.restrict_instance)."""
    school = next(i for i in multi.instances.values() if i.fixed is pool.fixed)
    return restrict_instance(
        school,
        map(school.priority.__getitem__, chain.from_iterable(pool.member_positions())),
    )
