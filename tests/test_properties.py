"""Property-based tests tying the flow engine, the oracle and the verifiers."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_search import (
    assert_same_choice,
    assert_valid_witness,
    full_candidate_crucial_vector,
    oracle_targets_valid,
    sequential_choice,
)

from reserve_match.flow import (
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_to_matching,
    matching_to_flow,
    min_cost_max_flow,
    signature_cost,
)
from reserve_match.gda import MultiInstance, School, induced_instance, run_gda
from reserve_match.model import (
    Instance,
    StudentRecord,
    check_matching,
    group_counts,
    lex_compare,
    matching_signature,
    min_selection_ratio,
    verify_non_wasteful,
    verify_same_group_priority,
)
from reserve_match.oracle import (
    OracleBudget,
    enumerate_maximal_diversity_matchings,
    oracle_choice,
    oracle_max_min_ratio,
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
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=6))
def test_lex_compare_matches_tuple_order(pairs):
    a = tuple(x for x, _y in pairs)
    b = tuple(y for _x, y in pairs)
    expected = 0 if a == b else (1 if a > b else -1)
    assert lex_compare(a, b) == expected
    assert lex_compare(b, a) == -expected


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
    order = lex_compare(first, second)
    cost_first = signature_cost(first, capacity)
    cost_second = signature_cost(second, capacity)
    if order == 0:
        assert cost_first == cost_second
    elif order > 0:
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
    assert verify_non_wasteful(instance, result.selected)
    assert verify_same_group_priority(instance, result.selected)
    assert min_selection_ratio(instance, result.selected) == result.alpha
    report = verify_balanced_and_jef(instance, result.selected, BUDGET)
    assert report.all_hold()


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
    assert (lifted.value, lifted.cost) == (cert.max_value, cert.min_cost)


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
    by_flow = check_validity_flow(instance, targets)
    mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
    assert (by_flow is not None) == oracle_targets_valid(mset, targets)
    if by_flow is None:
        return
    # the witness is maximally diverse, not merely feasible
    witness = flow_to_matching(instance, by_flow)
    assert_valid_witness(instance, witness, targets, mset.signature)


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
