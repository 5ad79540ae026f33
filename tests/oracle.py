"""Brute-force ground truth for small instances, the tests' reference.

Enumerates every achievable seat allocation by dynamic programming over
groups (students of a group are interchangeable, so allocations are counted
at the group level and witnesses rebuilt from priority prefixes). From the
full enumeration it derives the best signature, the set of rank-maximal
count vectors and the max-min selection ratio. Deliberately independent of
the flow engine: tests compare the engine's choices, ratios, validity
verdicts and `verify` reports with it (reference_search builds the literal
greedy choice and the four axiom verdicts on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from reserve_match.model import (
    GENERAL_TYPE,
    GroupKey,
    Instance,
    InternalInvariantError,
    Ratio,
    Seat,
    SeatMatching,
    Signature,
)


@dataclass(frozen=True)
class OracleBudget:
    max_students: int = 12
    max_seats: int = 18
    max_enumerations: int = 10_000_000


class OracleBudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _resolve_budget(instance: Instance, budget: Optional[OracleBudget]) -> OracleBudget:
    if budget is None:
        budget = OracleBudget()
    if len(instance.columns) > budget.max_students:
        raise OracleBudgetExceeded(
            f"{len(instance.columns)} students exceed oracle budget "
            f"{budget.max_students}"
        )
    seats = sum(instance.quotas.values()) + instance.capacity
    if seats > budget.max_seats:
        raise OracleBudgetExceeded(
            f"{seats} seats exceed oracle budget {budget.max_seats}"
        )
    return budget


@dataclass
class MaximalDiversitySet:
    """The enumerated rank-maximal landscape of one instance.

    count_vectors holds every per-group matched-count vector (ordered like
    group_keys) achievable by a matching with the best signature; witnesses
    maps each vector to one concrete matching realizing it.
    """

    group_keys: tuple[GroupKey, ...]
    signature: Signature
    count_vectors: frozenset[tuple[int, ...]]
    witnesses: dict[tuple[int, ...], SeatMatching]


def _seat_classes(instance: Instance, target: int) -> list[tuple[str, int, int]]:
    """(type, rank, usable cap) triples with non-zero caps, truncated at target."""
    classes = []
    for t in sorted(instance.types):
        for j in range(1, instance.max_rank + 1):
            cap = instance.quotas.get((t, j), 0)
            if cap:
                classes.append((t, j, min(cap, target)))
    general = min(instance.capacity, target)
    if general:
        classes.append((GENERAL_TYPE, instance.max_rank, general))
    return classes


def _spreads(
    caps: tuple[int, ...], compat: list[int], limit: int
) -> Iterator[tuple[int, ...]]:
    """All usage vectors over compat classes with per-class caps, total <= limit."""
    usage = [0] * len(caps)

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == len(compat):
            yield tuple(usage)
            return
        ci = compat[i]
        for k in range(min(caps[ci], remaining) + 1):
            usage[ci] = k
            yield from rec(i + 1, remaining - k)
        usage[ci] = 0

    return rec(0, limit)


def enumerate_maximal_diversity_matchings(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> MaximalDiversitySet:
    """Enumerate all full-size matchings with the best signature.

    Dynamic program over groups: a state is (remaining class caps, per-group
    counts so far); expansion enumerates every way a group can spread its
    members over its compatible classes. Also asserts that the best signature
    is only attained at full size min(|S|, q).
    """
    budget = _resolve_budget(instance, budget)
    groups = instance.groups()
    target = min(len(instance.columns), instance.capacity)
    classes = _seat_classes(instance, target)
    caps0 = tuple(cap for _t, _j, cap in classes)

    State = tuple[tuple[int, ...], tuple[int, ...]]
    parents: list[dict[State, Optional[tuple[State, tuple[int, ...]]]]] = [
        {} for _ in range(len(groups) + 1)
    ]
    parents[0][(caps0, ())] = None
    nodes = 0
    for gi, g in enumerate(groups):
        compat = [
            ci
            for ci, (t, _j, _cap) in enumerate(classes)
            if t == GENERAL_TYPE or t in g.key
        ]
        for caps, counts in parents[gi]:
            room = target - sum(counts)
            for usage in _spreads(caps, compat, min(g.size, room)):
                nodes += 1
                if nodes > budget.max_enumerations:
                    raise OracleBudgetExceeded(
                        f"enumeration exceeded {budget.max_enumerations} nodes"
                    )
                new_caps = tuple(c - u for c, u in zip(caps, usage))
                state = (new_caps, counts + (sum(usage),))
                if state not in parents[gi + 1]:
                    parents[gi + 1][state] = ((caps, counts), usage)

    def signature_of(caps_left: tuple[int, ...]) -> Signature:
        sig = [0] * instance.max_rank
        for (_t, j, _cap), before, after in zip(classes, caps0, caps_left):
            sig[j - 1] += before - after
        return tuple(sig)

    best: Optional[Signature] = None
    for caps_left, counts in parents[len(groups)]:
        sig = signature_of(caps_left)
        if best is None or sig > best:  # tuples of max_rank counts
            best = sig
    if best is None:
        raise InternalInvariantError("state space collapsed")
    if sum(best) != target:
        raise InternalInvariantError(
            f"best signature has size {sum(best)}, expected {target}"
        )

    vectors = set()
    witnesses: dict[tuple[int, ...], SeatMatching] = {}
    for state in parents[len(groups)]:
        caps_left, counts = state
        if signature_of(caps_left) != best:
            continue
        if counts not in vectors:
            vectors.add(counts)
            witnesses[counts] = _rebuild_witness(
                instance, groups, classes, parents, state
            )
    return MaximalDiversitySet(
        group_keys=tuple(g.key for g in groups),
        signature=best,
        count_vectors=frozenset(vectors),
        witnesses=witnesses,
    )


def _rebuild_witness(instance, groups, classes, parents, state) -> SeatMatching:
    """Walk the parent chain and materialize one matching for a final state."""
    usages: list[tuple[int, ...]] = []
    for gi in range(len(groups), 0, -1):
        prev, usage = parents[gi][state]
        usages.append(usage)
        state = prev
    usages.reverse()

    # each class's holders as (priority position, id), so sorting them
    # orders the class by priority
    holders: dict[tuple[str, int], list[tuple[int, str]]] = {}
    for g, positions, usage in zip(groups, instance.member_positions(), usages):
        slots: list[tuple[str, int]] = []
        for ci, k in enumerate(usage):
            if k:
                t, j, _cap = classes[ci]
                slots.extend([(t, j)] * k)
        slots.sort(key=lambda tj: (tj[1], tj[0]))
        for held, (t, j) in zip(zip(positions, g.members), slots):
            holders.setdefault((t, j), []).append(held)
    matching: SeatMatching = {}
    for (t, j), held in sorted(holders.items()):
        held.sort()
        for i, (_p, sid) in enumerate(held, start=1):
            matching[sid] = Seat(type=t, rank=j, index=i)
    return matching


def balanced_count_vectors(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> tuple[Ratio, MaximalDiversitySet, frozenset[tuple[int, ...]]]:
    """(alpha, enumeration, count vectors realizing the max-min ratio)."""
    mset = enumerate_maximal_diversity_matchings(instance, budget)
    groups = instance.groups()
    if not groups:
        return Fraction(0), mset, mset.count_vectors
    sizes = [g.size for g in groups]

    def worst(vector: tuple[int, ...]) -> Ratio:
        return min(Fraction(c, n) for c, n in zip(vector, sizes))

    alpha = max(worst(v) for v in mset.count_vectors)
    best = frozenset(v for v in mset.count_vectors if worst(v) == alpha)
    return alpha, mset, best
