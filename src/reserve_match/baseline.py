"""Sequential reserve-filling baseline for comparison against the solver.

Students are processed in descending priority. Each takes the smallest-rank
reserved seat still open among their own types (ties broken by type name),
else a general seat while the general pool lasts. The general pool holds
max(0, q - total reserved seats) so reserved and general seats never exceed
the capacity; selection stops once q students hold seats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    GENERAL_TYPE,
    GroupKey,
    Instance,
    Ratio,
    Seat,
    SeatMatching,
    Signature,
    check_matching,
    group_counts,
    matching_signature,
    min_count_ratio,
)


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of the sequential baseline on one instance."""

    selected: frozenset[str]
    matching: SeatMatching
    per_group_counts: dict[GroupKey, int]
    signature: Signature
    min_ratio: Ratio


def sequential_baseline(instance: Instance) -> BaselineResult:
    """Run the reserve-filling walk and package the outcome."""
    reserved_total = sum(instance.quotas.values())
    general_open = max(0, instance.capacity - reserved_total)
    open_seats = {
        (t, rank): count for (t, rank), count in instance.quotas.items() if count > 0
    }
    taken: dict[tuple[str, int], int] = {}
    matching: SeatMatching = {}
    for sid in instance.priority:
        if len(matching) >= instance.capacity:
            break
        held = instance.group_of(sid)
        slots = sorted(
            (rank, t)
            for (t, rank), count in open_seats.items()
            if t in held and taken.get((t, rank), 0) < count
        )
        if slots:
            rank, t = slots[0]
            taken[(t, rank)] = taken.get((t, rank), 0) + 1
            matching[sid] = Seat(type=t, rank=rank, index=taken[(t, rank)])
        elif general_open > 0:
            general_open -= 1
            key = (GENERAL_TYPE, instance.max_rank)
            taken[key] = taken.get(key, 0) + 1
            matching[sid] = Seat(
                type=GENERAL_TYPE, rank=instance.max_rank, index=taken[key]
            )
    check_matching(instance, matching)
    selected = frozenset(matching)
    counts = group_counts(instance, selected)
    return BaselineResult(
        selected=selected,
        matching=matching,
        per_group_counts=counts,
        signature=matching_signature(instance, matching),
        min_ratio=min_count_ratio(instance, counts),
    )
