"""Property-based tests tying the solver, the reference flow engine, the
oracle and the verifiers."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import (
    OracleBudget,
    balanced_count_vectors,
    enumerate_maximal_diversity_matchings,
    group_counts,
    matching_signature,
)
from reference_search import (
    assert_flow_witness,
    assert_same_choice,
    assert_same_network,
    assert_valid_witness,
    check_matching,
    full_candidate_crucial_vector,
    literal_envy_witness,
    lower_bounded_validity,
    matching_to_flow,
    oracle_choice,
    oracle_count_validity,
    oracle_max_min_ratio,
    oracle_targets_valid,
    rebuilt_induced_instance,
    rescanning_gda,
    sequential_choice,
    signature_cost,
)

from flow_reference import (
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_to_matching,
    min_cost_max_flow,
)
from reserve_match import flow
from reserve_match.flow import choice_flow, crucial_vector
from reserve_match.gda import MultiInstance, School, induced_instance, run_gda
from reserve_match.model import (
    Instance,
    StudentRecord,
    min_count_ratio,
    restrict_instance,
)
from reserve_match.verify import verify_balanced_and_jef

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# generous limits so random quota draws never push the oracle off a cliff
BUDGET = OracleBudget(max_students=12, max_seats=80, max_enumerations=10**7)


@st.composite
def instances(
    draw: st.DrawFn, max_students: int = 8, max_capacity: int = 6
) -> Instance:
    n = draw(st.integers(0, max_students))
    num_types = draw(st.integers(1, 3))
    types = [f"t{i}" for i in range(1, num_types + 1)]
    held = draw(
        st.lists(
            st.frozensets(st.sampled_from(types)),
            min_size=n,
            max_size=n,
        )
    )
    students = [StudentRecord(f"s{i}", types_) for i, types_ in enumerate(held)]
    priority = draw(st.permutations([s.id for s in students]))
    capacity = draw(st.integers(0, max_capacity))
    quotas = {}
    for t in types:
        for rank in (1, 2):
            count = draw(st.integers(0, 2))
            if count:
                quotas[(t, rank)] = count
    return Instance(
        students=students,
        capacity=capacity,
        priority=list(priority),
        types=types,
        quotas=quotas,
    )


@st.composite
def instances_with_targets(draw: st.DrawFn) -> tuple[Instance, dict]:
    instance = draw(instances())
    targets = {}
    for group in instance.groups():
        if draw(st.booleans()):
            targets[group.key] = draw(st.integers(0, group.size + 1))
    return instance, targets


@st.composite
def tied_schools(draw: st.DrawFn) -> Instance:
    """Schools of 6 to 8 groups of two or three students (at most 12), with
    seats for a third to two thirds of them and quotas of at most one.

    Many groups of one size give many tied selection ratios, so a random
    selection often has a swap whose new minimum is the ratio of a third
    group tied with, or just above, a swapped one.
    """
    types = ["t1", "t2", "t3"]
    type_sets = [frozenset(c) for r in range(4) for c in combinations(types, r)]
    keys = draw(
        st.lists(st.sampled_from(type_sets), min_size=6, max_size=8, unique=True)
    )
    held = [key for key in keys for _ in range(draw(st.sampled_from([2, 3])))]
    students = [StudentRecord(f"s{i}", key) for i, key in enumerate(held[:12])]
    priority = draw(st.permutations([s.id for s in students]))
    n = len(students)
    capacity = draw(st.integers(n // 3, 2 * n // 3))
    quotas = {
        (t, rank): 1 for t in types for rank in (1, 2) if draw(st.booleans())
    }
    return Instance(
        students=students,
        capacity=capacity,
        priority=list(priority),
        types=types,
        quotas=quotas,
    )


@st.composite
def markets(draw: st.DrawFn) -> MultiInstance:
    n = draw(st.integers(1, 6))
    num_types = draw(st.integers(1, 2))
    types = [f"t{i}" for i in range(1, num_types + 1)]
    held = draw(
        st.lists(
            st.frozensets(st.sampled_from(types)),
            min_size=n,
            max_size=n,
        )
    )
    students = [StudentRecord(f"s{i}", types_) for i, types_ in enumerate(held)]
    ids = [s.id for s in students]
    schools = []
    for cid in ("X", "Y"):
        capacity = draw(st.integers(0, 3))
        priority = tuple(draw(st.permutations(ids)))
        quotas = {}
        for t in types:
            count = draw(st.integers(0, 2))
            if count:
                quotas[(t, 1)] = count
        schools.append(School(cid, capacity, priority, quotas))
    preferences = {}
    for sid in ids:
        ranked = draw(st.lists(st.sampled_from(["X", "Y"]), unique=True, max_size=2))
        if ranked:
            preferences[sid] = ranked
    return MultiInstance(students, types, schools, preferences)


@PROPERTY_SETTINGS
@given(st.data())
def test_signature_cost_orders_equal_totals_like_lex(data):
    capacity = data.draw(st.integers(0, 6), label="capacity")
    ranks = data.draw(st.integers(1, 4), label="ranks")
    first = tuple(
        data.draw(st.integers(0, capacity), label=f"count{i}") for i in range(ranks)
    )
    # redistribute units without changing the total or breaching the cap
    second = list(first)
    for _ in range(data.draw(st.integers(1, 6), label="moves")):
        sources = [i for i, c in enumerate(second) if c > 0]
        sinks = [i for i, c in enumerate(second) if c < capacity]
        if not sources or not sinks:
            break
        i = data.draw(st.sampled_from(sources), label="from")
        j = data.draw(st.sampled_from(sinks), label="to")
        if i == j:
            continue
        second[i] -= 1
        second[j] += 1
    second = tuple(second)
    # equal-length tuples compare lexicographically
    cost_first = signature_cost(first, capacity)
    cost_second = signature_cost(second, capacity)
    if first == second:
        assert cost_first == cost_second
    elif first > second:
        assert cost_first < cost_second
    else:
        assert cost_first > cost_second


@PROPERTY_SETTINGS
@given(instances())
def test_backends_and_oracle_agree(instance):
    expected = oracle_choice(instance, BUDGET)
    by_flow = choice_flow(instance)
    assert by_flow.selected == expected
    assert by_flow.per_group_counts == group_counts(instance, expected)
    mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
    assert by_flow.signature == mset.signature


@PROPERTY_SETTINGS
@given(instances())
def test_choice_satisfies_all_axioms(instance):
    result = choice_flow(instance)
    # non-wastefulness is checked here, and the same-group priority prefix
    # by justified envy-freeness on same-group swaps
    report = verify_balanced_and_jef(instance, result.selected)
    assert report.all_hold()
    assert result.per_group_counts == group_counts(instance, result.selected)
    assert min_count_ratio(instance, result.per_group_counts) == result.alpha


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(instances() | tied_schools(), st.data())
def test_envy_witness_matches_literal_scan(instance, data):
    ids = list(data.draw(st.permutations([s.id for s in instance.students])))
    full = min(len(ids), instance.capacity)
    # full-size subsets are the ones that can carry justified envy
    size = data.draw(st.one_of(st.just(full), st.integers(0, len(ids))))
    selected = set(ids[:size])
    alpha, mset, _ = balanced_count_vectors(instance, BUDGET)
    literal = literal_envy_witness(
        instance, selected, alpha, oracle_count_validity(mset)
    )
    report = verify_balanced_and_jef(instance, selected)
    assert report.envy_witness == literal


@PROPERTY_SETTINGS
@given(instances())
def test_crucial_alpha_matches_oracle(instance):
    alpha, targets = crucial_vector(instance)
    oracle_alpha, oracle_targets = oracle_max_min_ratio(instance, BUDGET)
    assert alpha == oracle_alpha
    assert targets == oracle_targets


@PROPERTY_SETTINGS
@given(instances(max_students=30, max_capacity=20), st.booleans())
def test_batched_searches_match_sequential_reference(instance, from_zero):
    assert crucial_vector(instance) == full_candidate_crucial_vector(instance)
    delta = {} if from_zero else None
    assert_same_choice(choice_flow(instance, delta), sequential_choice(instance, delta))


@PROPERTY_SETTINGS
@given(instances())
def test_flow_matching_round_trip(instance):
    net = build_network(instance)
    cert = compute_certificate(net)
    best = min_cost_max_flow(net)
    matching = flow_to_matching(instance, best, network=net)
    check_matching(instance, matching)
    assert len(matching) == min(len(instance.students), instance.capacity)
    lifted = matching_to_flow(instance, matching, network=net)
    assert (lifted.value, lifted.cost) == (cert.value, cert.cost)


@PROPERTY_SETTINGS
@given(instances())
def test_rank_maximal_signature_matches_oracle(instance):
    mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
    net = build_network(instance)
    matching = flow_to_matching(instance, min_cost_max_flow(net), network=net)
    assert matching_signature(instance, matching) == mset.signature


@PROPERTY_SETTINGS
@given(instances_with_targets())
def test_validity_backends_agree(pair):
    instance, targets = pair
    counts = flow.check_validity_flow(instance, targets)
    by_flow = check_validity_flow(instance, targets)
    mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
    assert (counts is not None) == oracle_targets_valid(mset, targets)
    assert (by_flow is not None) == (counts is not None)
    if by_flow is None:
        return
    # the canonical counts are those of a maximal-diversity matching
    assert tuple(counts[key] for key in mset.group_keys) in mset.count_vectors
    # the reference's witness is maximally diverse, not merely feasible
    witness = flow_to_matching(instance, by_flow)
    assert_valid_witness(instance, witness, targets, mset.signature)


@PROPERTY_SETTINGS
@given(instances_with_targets())
def test_validity_matches_lower_bounded_reference(pair):
    instance, targets = pair
    net = build_network(instance)
    cert = compute_certificate(net)
    by_flow = check_validity_flow(instance, targets, network=net)
    reference = lower_bounded_validity(instance, targets)
    assert (by_flow is None) == (reference is None)
    assert (flow.check_validity_flow(instance, targets) is None) == (reference is None)
    if by_flow is not None:
        assert_flow_witness(instance, net, cert, by_flow, targets)


@PROPERTY_SETTINGS
@given(instances(max_students=30, max_capacity=20))
def test_optimum_potentials_prove_optimality(instance):
    # complementary slackness: arcs below capacity have reduced cost >= 0,
    # arcs carrying flow have reduced cost <= 0
    net = build_network(instance)
    best = min_cost_max_flow(net)
    pot = best.potentials
    arcs = zip(net.tails, net.heads, net.capacities, net.costs)
    for f, (u, v, cap, cost) in zip(best.arc_flows, arcs):
        reduced = cost + pot[u] - pot[v]
        assert f == cap or reduced >= 0
        assert f == 0 or reduced <= 0


@PROPERTY_SETTINGS
@given(instances(max_students=30, max_capacity=20), st.data())
def test_flat_network_matches_arc_reference(instance, data):
    n = len(instance.priority)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kept = [sid for sid, keep in zip(instance.priority, mask) if keep]
    cut = restrict_instance(instance, kept)
    # each lays the network out over its own group keys
    for which in (instance, cut):
        assert_same_network(build_network(which), which)


@PROPERTY_SETTINGS
@given(markets(), st.data())
def test_rank_ordered_restriction_matches_rebuilt_instance(multi, data):
    ids = sorted(multi.student_ids)
    for cid in ("X", "Y"):
        pool = data.draw(st.sets(st.sampled_from(ids)))
        cut = induced_instance(multi, cid, pool)
        want = rebuilt_induced_instance(multi, cid, pool)
        assert cut.priority == want.priority
        assert cut.columns.ids == want.columns.ids
        assert cut.columns.group_index == want.columns.group_index
        assert cut.columns.group_keys == want.columns.group_keys
        assert cut.groups() == want.groups()
        assert cut.member_positions() == want.member_positions()
        assert (cut.capacity, cut.types, cut.quotas) == (
            want.capacity, want.types, want.quotas
        )
        ghosts = data.draw(st.sets(st.sampled_from(["ghost", "s9", "zz"]), min_size=1))
        with pytest.raises(KeyError) as got:
            induced_instance(multi, cid, pool | ghosts)
        with pytest.raises(KeyError) as expected:
            rebuilt_induced_instance(multi, cid, pool | ghosts)
        assert str(got.value) == str(expected.value)


@PROPERTY_SETTINGS
@given(markets())
def test_gda_outcomes_are_coherent(multi):
    result = run_gda(multi)
    assert set(result.assignment) == {s.id for s in multi.students}
    held = {cid: set() for cid in ("X", "Y")}
    for sid, cid in result.assignment.items():
        assert cid is None or cid in multi.preference_list(sid)
        if cid is not None:
            held[cid].add(sid)
    for school in multi.schools:
        assert held[school.id] == set(result.per_school[school.id])
        assert len(held[school.id]) <= school.capacity

    assert [rt.number for rt in result.rounds] == list(
        range(1, len(result.rounds) + 1)
    )
    rejections = {cid: set() for cid in ("X", "Y")}
    for rt in result.rounds:
        assert rt.proposals
        for cid, ids in rt.rejected.items():
            rejections[cid].update(ids)
    for sid, cid in result.assignment.items():
        if cid is None:
            for listed in multi.preference_list(sid):
                assert sid in rejections[listed]

    # a held pool re-offered to its school is accepted unchanged
    for school in multi.schools:
        pool = result.per_school[school.id]
        if pool:
            sub = induced_instance(multi, school.id, pool)
            assert choice_flow(sub).selected == frozenset(pool)


@PROPERTY_SETTINGS
@given(markets())
def test_gda_rounds_match_rescanning_reference(multi):
    assert run_gda(multi) == rescanning_gda(multi)


@PROPERTY_SETTINGS
@given(instances())
def test_alpha_equals_worst_group_ratio(instance):
    result = choice_flow(instance)
    groups = instance.groups()
    if not groups:
        assert result.alpha == 0
        return
    worst = min(
        Fraction(result.per_group_counts[g.key], g.size) for g in groups
    )
    assert worst == result.alpha
