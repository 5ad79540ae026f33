"""Unit tests for the flow engine: network shape, solver, validity, choice."""

from __future__ import annotations

from fractions import Fraction

import pytest
from factories import (
    displacement_trap_school,
    four_block_school,
    hard_regime_school,
    make_instance,
    two_group_school,
    two_type_column_school,
)
from reference_search import assert_same_network
from test_golden import CORPUS

from reserve_match.flow import (
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_group_counts,
    flow_signature,
    flow_to_matching,
    matching_to_flow,
    min_cost_max_flow,
    rank_cost,
    signature_cost,
)
from reserve_match.model import (
    GENERAL_TYPE,
    Seat,
    check_matching,
    group_counts,
    matching_signature,
    restrict_instance,
)


def test_rank_cost_shape():
    # rank 1 is free; one unit slipping from rank k to k+1 costs more than
    # any redistribution of q units across the ranks above k+1 can save
    q, r = 4, 3
    assert rank_cost(1, q, r) == 0
    costs = [rank_cost(rank, q, r) for rank in range(1, r + 1)]
    assert costs == sorted(costs)
    for k in range(r - 1):
        step = costs[k + 1] - costs[k]
        spread = q * (costs[-1] - costs[k + 1])
        assert step > spread
    with pytest.raises(ValueError):
        rank_cost(0, q, r)
    with pytest.raises(ValueError):
        rank_cost(r + 1, q, r)


def test_signature_cost_prefers_lex_better():
    # same total, more weight on rank 1 must cost strictly less
    q = 5
    assert signature_cost((2, 0, 1), q) < signature_cost((1, 1, 1), q)
    assert signature_cost((1, 1, 1), q) < signature_cost((1, 0, 2), q)
    assert signature_cost((0, 0, 0), q) == 0


def test_network_layout_four_blocks():
    instance = four_block_school()
    net = build_network(instance)
    # 4 groups, 3 type nodes (t1, t2, general), classes for 2 ranks each, Q
    assert len(net.group_arcs) == 4
    assert {t for (_key, t) in net.group_type_arcs} == {"t1", "t2", GENERAL_TYPE}
    assert net.capacities[net.rank_arcs[("t1", 1)]] == 25
    assert net.capacities[net.rank_arcs[("t2", 1)]] == 25
    assert net.capacities[net.rank_arcs[(GENERAL_TYPE, 2)]] == 100
    # zero-capacity classes are kept in the arc table
    assert net.capacities[net.rank_arcs[("t1", 2)]] == 0
    assert net.capacities[net.rank_arcs[(GENERAL_TYPE, 1)]] == 0
    assert net.capacities[net.q_sink_arc] == 100
    for g in instance.groups():
        assert net.capacities[net.group_arcs[g.key]] == g.size


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_flat_network_matches_arc_reference_on_golden_corpus(name):
    instance = CORPUS[name][0]()
    assert_same_network(build_network(instance), instance)
    # restrictions reuse the instance's seat layout; every third student
    # keeps all groups, the top three usually leave some out
    for keep in (instance.priority[::3], instance.priority[:3]):
        cut = restrict_instance(instance, keep)
        assert cut.fixed is instance.fixed
        assert_same_network(build_network(cut), cut)


def test_certificate_small_instance():
    instance = two_group_school()
    cert = compute_certificate(build_network(instance))
    assert cert.max_value == 2
    # best signature is (1, 1): one reserved seat, one general seat
    assert cert.min_cost == signature_cost((1, 1), instance.capacity)


def test_min_cost_max_flow_unbounded_matches_signature():
    instance = two_type_column_school()
    net = build_network(instance)
    best = min_cost_max_flow(net)
    assert best.value == 4
    assert flow_signature(net, best) == (4, 0)
    assert sum(flow_group_counts(net, best).values()) == 4


def test_check_validity_flow_verdicts():
    instance = two_group_school()
    # (1, 1) is the balanced split and is valid
    witness = check_validity_flow(instance, {(): 1, ("t1",): 1})
    assert witness is not None
    counts = flow_group_counts(build_network(instance), witness)
    assert counts == {(): 1, ("t1",): 1}
    # its decomposition seats each group's top students
    assert set(flow_to_matching(instance, witness)) == {"s4", "s2"}
    # both seats to one group is not maximally diverse
    assert check_validity_flow(instance, {(): 2}) is None
    # targets beyond the group size can never be met
    assert check_validity_flow(instance, {(): 3}) is None
    # targets beyond the total seat count can never be met
    assert check_validity_flow(instance, {(): 2, ("t1",): 1}) is None
    # the empty target vector is always valid
    assert check_validity_flow(instance, {}) is not None


def test_check_validity_flow_returns_the_optimum_when_it_meets_the_targets():
    instance = four_block_school(group_size=6)
    net = build_network(instance)
    best = min_cost_max_flow(net)
    for targets in ({}, flow_group_counts(net, best)):
        witness = check_validity_flow(instance, targets, network=net)
        assert witness.arc_flows == best.arc_flows
        assert (witness.value, witness.cost) == (best.value, best.cost)


def test_check_validity_flow_reroutes_only_the_shortfall():
    instance = four_block_school(group_size=6)
    net = build_network(instance)
    best = min_cost_max_flow(net)
    assert flow_group_counts(net, best) == {
        (): 6, ("t1",): 3, ("t1", "t2"): 3, ("t2",): 0
    }
    # the t2 reserve moves from the doubly typed block to the t2 block; the
    # lifted group lands exactly on its target and no other group moves
    witness = check_validity_flow(instance, {("t2",): 3}, network=net)
    assert flow_group_counts(net, witness) == {
        (): 6, ("t1",): 3, ("t1", "t2"): 0, ("t2",): 3
    }
    assert flow_signature(net, witness) == flow_signature(net, best)


def test_check_validity_flow_rejects_unknown_groups():
    instance = two_group_school()
    with pytest.raises(ValueError, match="unknown groups"):
        check_validity_flow(instance, {("t9",): 1})
    with pytest.raises(ValueError, match="negative"):
        check_validity_flow(instance, {(): -1})


def test_crucial_vector_two_groups():
    instance = two_group_school()
    alpha, targets = crucial_vector(instance)
    assert alpha == Fraction(1, 2)
    assert targets == {(): 1, ("t1",): 1}


def test_crucial_vector_columns():
    alpha, targets = crucial_vector(two_type_column_school())
    assert alpha == Fraction(2, 5)
    assert targets == {("t1",): 2, ("t2",): 2}

    alpha, targets = crucial_vector(two_type_column_school(with_extra=True))
    assert alpha == Fraction(1, 3)
    assert targets == {("t1",): 2, ("t2",): 1}


def test_crucial_vector_no_quotas():
    instance = make_instance(
        [("a", []), ("b", [])], 1, ["a", "b"], ["t1"], {}
    )
    alpha, targets = crucial_vector(instance)
    assert alpha == Fraction(1, 2)
    assert targets == {(): 1}


def test_choice_flow_two_groups():
    result = choice_flow(two_group_school())
    assert result.selected == frozenset({"s2", "s4"})
    assert result.alpha == Fraction(1, 2)
    assert result.per_group_counts == {(): 1, ("t1",): 1}
    assert result.signature == (1, 1)
    assert result.targets == {(): 1, ("t1",): 1}


def test_choice_flow_columns():
    assert choice_flow(two_type_column_school()).selected == frozenset(
        {"s11", "s12", "s21", "s22"}
    )
    assert choice_flow(two_type_column_school(with_extra=True)).selected == frozenset(
        {"s11", "s12", "s13", "s21"}
    )


def test_choice_flow_single_group_takes_top_by_priority():
    instance = make_instance(
        [("a", []), ("b", []), ("c", [])], 2, ["b", "c", "a"], ["t1"], {}
    )
    assert choice_flow(instance).selected == frozenset({"b", "c"})


def test_choice_flow_keeps_each_groups_top_student():
    result = choice_flow(displacement_trap_school())
    assert result.selected == frozenset({"s0", "s1", "s3"})


def test_choice_flow_rejects_invalid_delta():
    instance = two_group_school()
    with pytest.raises(ValueError, match="not a valid target"):
        choice_flow(instance, {(): 2, ("t1",): 0})
    with pytest.raises(ValueError, match=r"unknown groups: \[\('t9',\)\]"):
        choice_flow(instance, {("t9",): 1, ("t1",): 1, (): 0})


def test_choice_flow_empty_instance():
    result = choice_flow(make_instance([], 3, [], ["t1"], {}))
    assert result.selected == frozenset()
    assert result.alpha == 0


def test_flow_to_matching_round_trip():
    instance = four_block_school(group_size=6)
    net = build_network(instance)
    cert = compute_certificate(net)
    best = min_cost_max_flow(net)
    matching = flow_to_matching(instance, best, network=net)
    check_matching(instance, matching)
    assert matching_signature(instance, matching) == flow_signature(net, best)
    assert group_counts(instance, matching) == flow_group_counts(net, best)
    lifted = matching_to_flow(instance, matching, network=net)
    assert (lifted.value, lifted.cost) == (cert.max_value, cert.min_cost)


DECOMPOSED = {
    **{name: build for name, (build, _in, _out) in CORPUS.items()},
    "hard-600-reserved-95": lambda: hard_regime_school(600, 3, reserved_percent=95),
}


@pytest.mark.parametrize("name", sorted(DECOMPOSED))
def test_flow_to_matching_seats_follow_priority(name):
    # each group's seats go to its top-priority members, best ranks first,
    # and inside each seat class the indices 1..k follow priority
    instance = DECOMPOSED[name]()
    net = build_network(instance)
    _alpha, targets = crucial_vector(instance, network=net)
    witness = check_validity_flow(instance, targets, network=net)
    matching = flow_to_matching(instance, witness, network=net)
    check_matching(instance, matching)
    position = {sid: p for p, sid in enumerate(instance.priority)}
    for g in instance.groups():
        held = [sid for sid in g.members if sid in matching]
        assert held == list(g.members[: len(held)])
        ranks = [matching[sid].rank for sid in held]
        assert ranks == sorted(ranks)
    classes: dict[tuple[str, int], list[tuple[int, str]]] = {}
    for sid, seat in matching.items():
        classes.setdefault((seat.type, seat.rank), []).append((seat.index, sid))
    for holders in classes.values():
        holders.sort()
        assert [i for i, _sid in holders] == list(range(1, len(holders) + 1))
        order = [position[sid] for _i, sid in holders]
        assert order == sorted(order)


def test_matching_to_flow_rejects_bad_matchings():
    instance = two_group_school()
    with pytest.raises(ValueError, match="lacks type"):
        matching_to_flow(instance, {"s3": Seat("t1", 1, 1)})
    with pytest.raises(ValueError, match="assigned twice"):
        matching_to_flow(
            instance, {"s1": Seat("t1", 1, 1), "s2": Seat("t1", 1, 1)}
        )
    with pytest.raises(ValueError, match="outside class"):
        matching_to_flow(instance, {"s1": Seat("t1", 1, 5)})
    with pytest.raises(ValueError, match="no seat class"):
        matching_to_flow(instance, {"s1": Seat("t1", 9, 1)})
