"""Axiom verifier for selection outputs.

Checks a selected set against the four axioms: non-wastefulness, maximal
diversity, balanced representation and justified envy-freeness. There is one
checker with two sources for what it needs, the maximum balanced ratio alpha
and the validity test (can a maximal-diversity matching realize these
per-group counts?). Small instances take both from the enumeration oracle;
larger ones fall back to the flow engine, and the report says which ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import flow, oracle
from .model import (
    GroupKey,
    Instance,
    Ratio,
    flagged_group_counts,
    min_count_ratio,
    selection_flags,
)

MODE_ORACLE = "oracle"
MODE_STRUCTURAL = "structural"

# True when some maximal-diversity matching has exactly these group counts.
Validity = Callable[[dict[GroupKey, int]], bool]


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for one selected set.

    mode records how the verdicts were obtained: "oracle" means exhaustive
    enumeration, "structural" means flow-based checks on instances too large
    for the oracle budget. envy_witness carries one offending pair
    (unselected, selected) when justified envy exists.
    """

    mode: str
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


def _oracle_source(
    instance: Instance, budget: Optional[oracle.OracleBudget]
) -> tuple[str, Ratio, Validity]:
    alpha, mset, _balanced_vectors = oracle.balanced_count_vectors(instance, budget)

    def valid(counts: dict[GroupKey, int]) -> bool:
        return tuple(counts[key] for key in mset.group_keys) in mset.count_vectors

    return MODE_ORACLE, alpha, valid


def _flow_source(instance: Instance) -> tuple[str, Ratio, Validity]:
    network = flow.build_network(instance)
    cert = flow.compute_certificate(network)
    alpha, _delta_star = flow.crucial_vector(instance, network=network, cert=cert)

    def valid(counts: dict[GroupKey, int]) -> bool:
        witness = flow.check_validity_flow(
            instance, counts, network=network, cert=cert
        )
        return witness is not None

    return MODE_STRUCTURAL, alpha, valid


def verify_balanced_and_jef(
    instance: Instance,
    selected: Iterable[str],
    oracle_budget: Optional[oracle.OracleBudget] = None,
) -> AxiomReport:
    """Verdicts for all four axioms on an arbitrary selected set; unknown
    ids raise KeyError."""
    return verify_flags(instance, selection_flags(instance, selected), oracle_budget)


def verify_flags(
    instance: Instance,
    flags: bytearray,
    oracle_budget: Optional[oracle.OracleBudget] = None,
) -> AxiomReport:
    """verify_balanced_and_jef on the selection's flags per file row (see
    model.selection_flags).

    Justified envy follows the definition: an unselected student s envies a
    selected, lower-priority s' when swapping them still yields a maximal
    diversity matching attaining the max-min ratio. Same-group swaps keep the
    counts and catch priority inversions inside a group.
    """
    counts = flagged_group_counts(instance, flags)
    try:
        mode, alpha, valid = _oracle_source(instance, oracle_budget)
    except oracle.OracleBudgetExceeded:
        mode, alpha, valid = _flow_source(instance)
    full = min(len(instance.columns), instance.capacity)
    non_wasteful = sum(counts.values()) == full
    maximal = non_wasteful and valid(counts)
    # a selection of the wrong size has no valid swap: every maximal-diversity
    # matching has exactly min(|S|, q) members
    witness = (
        _envy_witness(instance, flags, counts, alpha, valid) if non_wasteful else None
    )
    return AxiomReport(
        mode=mode,
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
    valid: Validity,
) -> Optional[tuple[str, str]]:
    """The first justified-envy pair of the definition's scan, or None.

    A swap's verdict depends only on the two groups, so one extreme pair per
    ordered group pair decides: the top unselected member of one group
    against the bottom selected member of the other is the easiest pair to
    qualify. Among qualifying pairs the highest-priority envier wins, then
    its lowest-priority target.
    """
    groups = instance.groups()
    positions = instance.member_positions()
    rows = instance.priority_rows()
    # priority positions: each group's top unselected and bottom selected member
    tops = [next((p for p in pos if not flags[rows[p]]), None) for pos in positions]
    candidates: list[tuple[int, int]] = []
    for g_out, pos_out in zip(groups, positions):
        bottom = next((p for p in reversed(pos_out) if flags[rows[p]]), None)
        if bottom is None:
            continue
        for g_in, top in zip(groups, tops):
            if top is None or top >= bottom:
                continue
            swapped = dict(counts)
            swapped[g_in.key] += 1
            swapped[g_out.key] -= 1
            if valid(swapped) and min_count_ratio(instance, swapped) == alpha:
                candidates.append((top, bottom))
    if not candidates:
        return None
    top, bottom = min(candidates, key=lambda pair: (pair[0], -pair[1]))
    return instance.priority[top], instance.priority[bottom]
