"""Validity checks against the lower-bounded reference.

`check_validity_flow` decides every check on the type lattice and raises
valid targets to canonical counts; the reference network's check reroutes
its one min-cost optimum. These tests compare both verdicts with the full
lower-bounded solve in `reference_search` on seeded instances of 10^2 to
10^4 students (hard regime included), put every reference witness through
the flow checks, and check that the canonical counts meet the targets, sum
to F* and are a maximal-diversity matching's exact counts on the reference
network. The reference's own lower-bound transform is tested here too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from factories import hard_regime_school, make_instance, two_group_school
from flow_reference import (
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_group_counts,
    min_cost_max_flow,
)
from reference_search import (
    assert_flow_witness,
    lower_bounded_flow,
    lower_bounded_validity,
    lower_bounds,
)

from reserve_match import flow
from reserve_match.flow import choice_flow, crucial_vector
from reserve_match.generator import generate_instance
from reserve_match.model import Instance, TargetVector

SEEDED = {
    "gen-100-r2": lambda: generate_instance(100, 2, 2, 301),
    "gen-1000-r3-minmax": lambda: generate_instance(1000, 3, 3, 302, "minmax"),
    "gen-10000-r2": lambda: generate_instance(10000, 3, 2, 303),
    "gen-2000-tight-capacity": lambda: generate_instance(
        2000, 3, 2, 304, capacity=300
    ),
    "hard-100": lambda: hard_regime_school(100, 305),
    "hard-1000-reserved-98": lambda: hard_regime_school(1000, 306, 98),
    "hard-10000": lambda: hard_regime_school(10000, 307),
}


def _probe_vectors(instance: Instance, seed: int) -> list[TargetVector]:
    """Target vectors near the decision boundary: the crucial vector and one
    unit more for each group, the choice's counts and one unit moved between
    each ordered pair of groups, ceilings on a grid of ratios around alpha,
    and random vectors."""
    groups = instance.groups()
    alpha, targets = crucial_vector(instance)
    counts = choice_flow(instance).per_group_counts
    vectors: list[TargetVector] = [{}, targets, counts]
    for g in groups:
        vectors.append({**targets, g.key: targets[g.key] + 1})
    for g_in in groups:
        for g_out in groups:
            if g_in.key != g_out.key and counts[g_out.key]:
                moved = dict(counts)
                moved[g_in.key] += 1
                moved[g_out.key] -= 1
                vectors.append(moved)
    for step in range(-3, 4):
        beta = min(max(alpha + Fraction(step, 40), Fraction(0)), Fraction(1))
        vectors.append(
            {g.key: -(-beta.numerator * g.size // beta.denominator) for g in groups}
        )
    rng = random.Random(seed)
    for _ in range(10):
        vectors.append(
            {g.key: rng.randint(0, min(g.size, counts[g.key] + 2)) for g in groups}
        )
    return vectors


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_verdicts_match_lower_bounded_reference(name):
    instance = SEEDED[name]()
    net = build_network(instance)
    cert = compute_certificate(net)
    start = flow_group_counts(net, min_cost_max_flow(net))
    verdicts = set()
    checks = flow.build_network(instance)
    for i, targets in enumerate(_probe_vectors(instance, len(name))):
        witness = check_validity_flow(instance, targets, network=net)
        reference = lower_bounded_validity(instance, targets)
        counts = flow.check_validity_flow(instance, targets, network=checks)
        assert (witness is None) == (reference is None), (i, targets)
        assert (counts is None) == (reference is None), (i, targets)
        verdicts.add(witness is None)
        if witness is None:
            continue
        assert all(counts[key] >= want for key, want in targets.items())
        assert sum(counts.values()) == cert.value
        exact = check_validity_flow(instance, counts, network=net)
        assert flow_group_counts(net, exact) == counts
        assert_flow_witness(instance, net, cert, witness, targets)
        # the smallest reroute of f*: a group below its target is lifted
        # exactly to it, any other group gives up at most its surplus
        for key, now in flow_group_counts(net, witness).items():
            want = targets.get(key, 0)
            if want > start[key]:
                assert now == want
            else:
                assert want <= now <= start[key]
    assert verdicts == {True, False}


def test_reference_lower_bounds_sit_on_source_arcs():
    instance = two_group_school()
    net = build_network(instance)
    lower = lower_bounds(net, {("t1",): 1})
    assert len(lower) == len(net.tails)
    assert lower[net.group_arcs[("t1",)]] == 1
    assert lower[net.group_arcs[()]] == 0
    assert sum(lower) == 1


def test_reference_rejects_bad_targets():
    net = build_network(two_group_school())
    with pytest.raises(ValueError, match="unknown groups"):
        lower_bounds(net, {("t9",): 1})
    with pytest.raises(ValueError, match="negative"):
        lower_bounds(net, {("t1",): -1})


def test_reference_lower_bound_feasibility_transform():
    # an infeasible bound combination: both students forced, one seat total
    instance = make_instance(
        [("a", []), ("b", [])], 1, ["a", "b"], ["t1"], {}
    )
    net = build_network(instance)
    assert lower_bounded_flow(net, lower_bounds(net, {(): 2})) is None
    # with lower bounds satisfied the solve reports the forced unit
    bounded = lower_bounded_flow(net, lower_bounds(net, {(): 1}))
    assert bounded is not None
    assert bounded.value == 1
