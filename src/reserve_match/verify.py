"""Axiom verifier for selection outputs.

Checks a selected set against the four axioms: non-wastefulness, maximal
diversity, balanced representation and justified envy-freeness. The
instance's type lattice (flow.build_network) supplies what the checks
need: the maximum balanced ratio alpha (flow.crucial_vector) and the
validity test, whether some maximal-diversity matching has exactly a given
per-group count vector. The tests compare these verdicts with an
exhaustive enumeration of small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import flow
from .model import (
    GroupKey,
    Instance,
    Ratio,
    flagged_group_counts,
    min_count_ratio,
    selection_flags,
)


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for one selected set.

    alpha is the maximum balanced ratio the balance verdict compares with.
    envy_witness carries one offending pair (unselected, selected) when
    justified envy exists.
    """

    non_wasteful: bool
    maximal_diversity: bool
    balanced: bool
    justified_envy_free: bool
    alpha: Ratio
    envy_witness: Optional[tuple[str, str]] = None

    def all_hold(self) -> bool:
        return (
            self.non_wasteful
            and self.maximal_diversity
            and self.balanced
            and self.justified_envy_free
        )


def verify_balanced_and_jef(instance: Instance, selected: Iterable[str]) -> AxiomReport:
    """Verdicts for all four axioms on an arbitrary selected set; unknown
    ids raise KeyError."""
    return verify_flags(instance, selection_flags(instance, selected))


def verify_flags(instance: Instance, flags: bytearray) -> AxiomReport:
    """verify_balanced_and_jef on the selection's flags per file row (see
    model.selection_flags).

    Justified envy follows the definition: an unselected student s envies a
    selected, lower-priority s' when swapping them still yields a maximal
    diversity matching attaining the max-min ratio. Same-group swaps keep the
    counts and catch priority inversions inside a group.
    """
    counts = flagged_group_counts(instance, flags)
    checks = flow.build_network(instance)
    alpha, _delta_star = flow.crucial_vector(instance, network=checks)
    valid = checks.check

    full = min(len(instance.columns), instance.capacity)
    non_wasteful = sum(counts.values()) == full
    maximal = non_wasteful and valid(counts)
    # a selection of the wrong size has no valid swap: every maximal-diversity
    # matching has exactly min(|S|, q) members
    witness = (
        _envy_witness(instance, flags, counts, alpha, valid) if non_wasteful else None
    )
    return AxiomReport(
        non_wasteful=non_wasteful,
        maximal_diversity=maximal,
        balanced=maximal and min_count_ratio(instance, counts) == alpha,
        justified_envy_free=witness is None,
        alpha=alpha,
        envy_witness=witness,
    )


def _envy_witness(
    instance: Instance,
    flags: bytearray,
    counts: dict[GroupKey, int],
    alpha: Ratio,
    valid: Callable[[dict[GroupKey, int]], bool],
) -> Optional[tuple[str, str]]:
    """The first justified-envy pair of the definition's scan, or None.

    A swap's verdict depends only on the two groups, so one extreme pair per
    ordered group pair decides: the top unselected member of one group
    against the bottom selected member of the other is the easiest pair to
    qualify. Among qualifying pairs the highest-priority envier wins, then
    its lowest-priority target.

    Balance is tested first, as it is the cheap test and rules out most
    pairs. A swap changes the ratios of its two groups only, so the swapped
    minimum is the smaller of their new ratios and the smallest ratio of
    the other groups. The two smallest ratios overall suffice: when both
    belong to the swapped groups, the losing group's new ratio is below
    every other group's.
    """
    keys = instance.group_keys()
    positions = instance.member_positions()
    rows = instance.priority_rows()
    have = [counts[key] for key in keys]
    sizes = [len(pos) for pos in positions]
    ratios = [Fraction(c, n) for c, n in zip(have, sizes)]
    gained = [Fraction(c + 1, n) for c, n in zip(have, sizes)]
    lowest = sorted(range(len(keys)), key=ratios.__getitem__)[:2]
    # priority positions: each group's top unselected and bottom selected member
    tops = [next((p for p in pos if not flags[rows[p]]), None) for pos in positions]
    candidates: list[tuple[int, int]] = []
    for g_out, pos_out in enumerate(positions):
        bottom = next((p for p in reversed(pos_out) if flags[rows[p]]), None)
        if bottom is None:
            continue
        lost = Fraction(have[g_out] - 1, sizes[g_out])
        for g_in, top in enumerate(tops):
            if top is None or top >= bottom:
                continue
            if g_in == g_out:
                worst = ratios[lowest[0]]
            else:
                worst = min(gained[g_in], lost)
                rest = next((g for g in lowest if g != g_in and g != g_out), None)
                if rest is not None and ratios[rest] < worst:
                    worst = ratios[rest]
            if worst != alpha:
                continue
            swapped = dict(counts)
            swapped[keys[g_in]] += 1
            swapped[keys[g_out]] -= 1
            if valid(swapped):
                candidates.append((top, bottom))
    if not candidates:
        return None
    top, bottom = min(candidates, key=lambda pair: (pair[0], -pair[1]))
    return instance.priority[top], instance.priority[bottom]
