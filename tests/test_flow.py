"""Unit tests for the flow engine: network shape, solver, validity, choice."""

from __future__ import annotations

from fractions import Fraction

import pytest
from factories import (
    displacement_trap_school,
    four_block_school,
    make_instance,
    two_group_school,
    two_type_column_school,
)

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
    matching_group_counts,
    matching_signature,
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
    assert net.arcs[net.rank_arcs[("t1", 1)]].capacity == 25
    assert net.arcs[net.rank_arcs[("t2", 1)]].capacity == 25
    assert net.arcs[net.rank_arcs[(GENERAL_TYPE, 2)]].capacity == 100
    # zero-capacity classes are kept in the arc table
    assert net.arcs[net.rank_arcs[("t1", 2)]].capacity == 0
    assert net.arcs[net.rank_arcs[(GENERAL_TYPE, 1)]].capacity == 0
    assert net.arcs[net.q_sink_arc].capacity == 100
    for g in instance.groups():
        assert net.arcs[net.group_arcs[g.key]].capacity == g.size


def test_with_targets_keeps_arc_layout():
    instance = two_group_school()
    net = build_network(instance)
    bounded = net.with_targets({("t1",): 1})
    assert [
        (a.tail, a.head, a.capacity, a.cost) for a in bounded.arcs
    ] == [(a.tail, a.head, a.capacity, a.cost) for a in net.arcs]
    assert bounded.arcs[bounded.group_arcs[("t1",)]].lower == 1
    assert bounded.arcs[bounded.group_arcs[()]].lower == 0


def test_network_rejects_bad_targets():
    instance = two_group_school()
    with pytest.raises(ValueError, match="unknown groups"):
        build_network(instance).with_targets({("t9",): 1})
    with pytest.raises(ValueError, match="negative"):
        build_network(instance).with_targets({("t1",): -1})


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
    assert matching_group_counts(instance, matching) == flow_group_counts(net, best)
    lifted = matching_to_flow(instance, matching, network=net)
    assert (lifted.value, lifted.cost) == (cert.max_value, cert.min_cost)


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


def test_lower_bound_feasibility_transform():
    # an infeasible bound combination: both students forced, one seat total
    instance = make_instance(
        [("a", []), ("b", [])], 1, ["a", "b"], ["t1"], {}
    )
    net = build_network(instance).with_targets({(): 2})
    assert min_cost_max_flow(net, respect_lower_bounds=True) is None
    # with lower bounds satisfied the solve reports the forced unit
    net_ok = build_network(instance).with_targets({(): 1})
    bounded = min_cost_max_flow(net_ok, respect_lower_bounds=True)
    assert bounded is not None
    assert bounded.value == 1
