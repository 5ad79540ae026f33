"""Rank-maximal priority-greedy baseline for comparison against the solver.

The baseline is the choice function's walk from zero targets: among the
rank-maximal selections it admits students in priority order, each one
whenever some maximal-diversity matching still fits its group's count. It
meets non-wastefulness, maximal diversity and justified envy-freeness, but
no group is lifted toward the max-min ratio, so its worst-off ratio is at
most alpha and can fall well below it. This is the comparison the paper
draws: a choice that keeps the other three axioms can still leave some type
combination far behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .model import GroupKey, Instance, Ratio, Signature, min_count_ratio


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of the baseline on one instance."""

    selected: frozenset[str]
    per_group_counts: dict[GroupKey, int]
    signature: Signature
    min_ratio: Ratio


def sequential_baseline(instance: Instance) -> BaselineResult:
    """Run the engine's walk from zero targets and package the outcome."""
    choice = flow.choice_flow(instance, dict.fromkeys(instance.group_keys(), 0))
    counts = choice.per_group_counts
    return BaselineResult(
        selected=choice.selected,
        per_group_counts=counts,
        signature=choice.signature,
        min_ratio=min_count_ratio(instance, counts),
    )
