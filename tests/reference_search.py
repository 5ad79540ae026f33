"""Reference searches for differential tests of the flow backend.

These are the straightforward algorithms `flow` used before its searches were
batched: the alpha search materializes every candidate ratio k/|S_u| and
bisects over the sorted set, and the greedy walk makes one validity check per
remaining student. They are slow (one lower-bounded solve per admission) but
obviously correct, so the fast versions must reproduce them exactly.

It also holds the oracle's validity verdict for target vectors and the checks
a validity witness must pass, shared by the differential validity tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from reserve_match.flow import (
    FlowNetwork,
    OptimalityCertificate,
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_signature,
)
from reserve_match.model import (
    ChoiceResult,
    GroupKey,
    Instance,
    Ratio,
    SeatMatching,
    Signature,
    TargetVector,
    check_matching,
    matching_group_counts,
    matching_signature,
)
from reserve_match.oracle import MaximalDiversitySet


def full_candidate_crucial_vector(
    instance: Instance,
    *,
    network: Optional[FlowNetwork] = None,
    cert: Optional[OptimalityCertificate] = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Alpha by bisection over the full sorted set {0} | {k / |S_u|}."""
    net = network if network is not None else build_network(instance)
    if cert is None:
        cert = compute_certificate(net)
    groups = instance.groups()
    candidates = {Fraction(0)}
    for g in groups:
        candidates.update(Fraction(k, g.size) for k in range(1, g.size + 1))
    ordered = sorted(candidates)

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        return {g.key: math.ceil(beta * g.size) for g in groups}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(
            instance, targets_at(beta), network=net, cert=cert
        )
        return witness is not None

    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(ordered[mid]):
            lo = mid
        else:
            hi = mid - 1
    alpha = ordered[lo]
    if not feasible(alpha):
        raise AssertionError("zero-target validity failed")
    return alpha, targets_at(alpha)


def sequential_choice(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> ChoiceResult:
    """Balanced selection with one validity check per remaining student."""
    net = build_network(instance)
    cert = compute_certificate(net)
    groups = instance.groups()
    if delta_star is None:
        alpha, delta_star = full_candidate_crucial_vector(
            instance, network=net, cert=cert
        )
    targets = {g.key: int(delta_star.get(g.key, 0)) for g in groups}
    if check_validity_flow(instance, targets, network=net, cert=cert) is None:
        raise ValueError("delta_star is not a valid target vector")
    if alpha is None:
        alpha = min(
            (Fraction(targets[g.key], g.size) for g in groups),
            default=Fraction(0),
        )

    counts = dict(targets)
    selected: set[str] = set()
    for g in groups:
        selected.update(g.members[: targets[g.key]])
    # (group, attempted count) pairs already rejected; later attempts with the
    # same pair face componentwise larger bounds, so they stay invalid
    dead: set[tuple[GroupKey, int]] = set()
    for sid in instance.priority:
        if sid in selected:
            continue
        key = instance.group_of(sid)
        attempt = counts[key] + 1
        if (key, attempt) in dead:
            continue
        trial = dict(counts)
        trial[key] = attempt
        if check_validity_flow(instance, trial, network=net, cert=cert) is not None:
            counts = trial
            selected.add(sid)
        else:
            dead.add((key, attempt))

    witness = check_validity_flow(instance, counts, network=net, cert=cert)
    if witness is None:
        raise AssertionError("final selection lost maximal diversity")
    return ChoiceResult(
        selected=frozenset(selected),
        per_group_counts=counts,
        signature=flow_signature(net, witness),
        alpha=alpha,
        targets=targets,
    )


def assert_same_choice(fast: ChoiceResult, slow: ChoiceResult) -> None:
    """Every field of two choice results agrees, not just the selection."""
    assert fast.selected == slow.selected
    assert fast.per_group_counts == slow.per_group_counts
    assert fast.signature == slow.signature
    assert fast.alpha == slow.alpha
    assert fast.targets == slow.targets


def oracle_targets_valid(mset: MaximalDiversitySet, targets: TargetVector) -> bool:
    """Targets are valid iff some rank-maximal count vector meets every one."""
    return any(
        all(counts[key] >= want for key, want in targets.items())
        for counts in map(mset.counts_as_dict, mset.count_vectors)
    )


def assert_valid_witness(
    instance: Instance,
    matching: SeatMatching,
    targets: TargetVector,
    signature: Signature,
) -> None:
    """A well-formed matching with the best signature that meets the targets."""
    check_matching(instance, matching)
    assert matching_signature(instance, matching) == signature
    counts = matching_group_counts(instance, matching)
    for key, want in targets.items():
        assert counts[key] >= want
