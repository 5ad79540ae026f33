"""The residual-graph validity check against the lower-bounded reference.

`check_validity_flow` answers every check on a network from the network's
one min-cost optimum. These tests compare its verdicts with the full
lower-bounded solve in `reference_search` on seeded instances of 10^2 to
10^4 students (hard regime included), put every witness through the flow
checks, and guard that a choice, a structural verify or `validate` makes
one min-cost solve however many checks it makes, and a substitutability
probe one per choice. The reference's own lower-bound transform is tested
here too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from factories import hard_regime_school, make_instance, two_group_school
from reference_search import (
    assert_flow_witness,
    count_checks,
    lower_bounded_flow,
    lower_bounded_validity,
    lower_bounds,
)

from reserve_match import cli, flow
from reserve_match.files import dump_json, instance_to_payload
from reserve_match.flow import (
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_group_counts,
    min_cost_max_flow,
)
from reserve_match.gda import substitutability_probe
from reserve_match.generator import generate_instance
from reserve_match.model import Instance, TargetVector, group_label
from reserve_match.verify import verify_balanced_and_jef

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
    for i, targets in enumerate(_probe_vectors(instance, len(name))):
        witness = check_validity_flow(instance, targets, network=net)
        reference = lower_bounded_validity(instance, targets)
        assert (witness is None) == (reference is None), (i, targets)
        verdicts.add(witness is None)
        if witness is None:
            continue
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


def test_one_min_cost_solve_per_choice_and_verify(monkeypatch, tmp_path, capsys):
    instance = hard_regime_school(3000, 308, 98)
    solves: list[None] = []
    run = flow._MinCostFlow.run

    def counted_run(self, source, target):
        solves.append(None)
        return run(self, source, target)

    monkeypatch.setattr(flow._MinCostFlow, "run", counted_run)
    checks = count_checks(monkeypatch)
    result = choice_flow(instance)
    assert len(solves) == 1
    assert len(checks) >= 2

    solves.clear()
    checks.clear()
    report = verify_balanced_and_jef(instance, result.selected)
    assert report.all_hold()
    assert len(solves) == 1
    assert len(checks) >= 2

    # `validate` checks one target vector on one network: one solve
    path = tmp_path / "instance.json"
    path.write_text(dump_json(instance_to_payload(instance)), encoding="utf-8")
    targets = tmp_path / "targets.json"
    labels = {group_label(key): want for key, want in result.targets.items()}
    targets.write_text(dump_json(labels), encoding="utf-8")
    solves.clear()
    assert cli.main(["validate", str(path), "--targets", str(targets)]) == 0
    assert capsys.readouterr().out.startswith("VALID")
    assert len(solves) == 1

    # the probe makes two choices on two pools: the small pool's solve,
    # whose witness already fills the q seats of the large pool, where it
    # is f* itself
    solves.clear()
    priority = instance.priority
    s1, s2 = priority[len(priority) // 3], priority[2 * len(priority) // 3]
    substitutability_probe(instance, set(priority) - {s1, s2}, s1, s2)
    assert len(solves) == 1


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
