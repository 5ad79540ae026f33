"""End-to-end acceptance checks for the whole package."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from factories import (
    four_block_school,
    random_school,
    random_targets,
    two_group_school,
    two_type_column_school,
)
from reference_search import (
    assert_valid_witness,
    matching_to_flow,
    oracle_choice,
    oracle_max_min_ratio,
    oracle_report,
    oracle_targets_valid,
    signature_cost,
)

import flow_reference
from flow_reference import (
    build_network,
    compute_certificate,
    flow_signature,
    flow_to_matching,
    min_cost_max_flow,
)
from reserve_match import flow
from reserve_match.baseline import sequential_baseline
from reserve_match.bench import bench_payload, run_bench
from reserve_match.flow import check_validity_flow, choice_flow, crucial_vector
from reserve_match.gda import substitutability_probe
from oracle import (
    OracleBudget,
    enumerate_maximal_diversity_matchings,
)
from reserve_match.verify import verify_balanced_and_jef

BUDGET = OracleBudget(max_students=12, max_seats=80, max_enumerations=10**7)

RANDOM_RUNS = 500


def test_criterion_1_solver_balances_four_blocks_where_baseline_starves_one():
    instance = four_block_school()
    assert len(instance.students) == 200

    started = time.perf_counter()
    result = choice_flow(instance)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    assert result.alpha == Fraction(1, 2)
    assert set(result.per_group_counts.values()) == {25}

    naive = sequential_baseline(instance)
    counts = naive.per_group_counts
    assert counts[()] == 50
    assert counts[("t1",)] == 25
    assert counts[("t2",)] == 25
    assert counts[("t1", "t2")] == 0
    assert naive.min_ratio == 0


def test_criterion_2_both_backends_pick_the_balanced_pair():
    instance = two_group_school()
    expected = frozenset({"s2", "s4"})
    assert choice_flow(instance).selected == expected


def test_criterion_3_extra_student_rescues_a_previously_rejected_one():
    without_extra = two_type_column_school()
    assert choice_flow(without_extra).selected == frozenset(
        {"s11", "s12", "s21", "s22"}
    )

    with_extra = two_type_column_school(with_extra=True)
    assert choice_flow(with_extra).selected == frozenset(
        {"s11", "s12", "s13", "s21"}
    )

    base = [s.id for s in with_extra.students if s.id not in ("s16", "s13")]
    violation = substitutability_probe(with_extra, base, "s16", "s13")
    assert violation is not None
    assert "s13" not in violation.without_s1
    assert "s13" in violation.with_s1


def test_criterion_4_backends_match_brute_force_on_random_instances():
    rng = random.Random(41)
    started = time.perf_counter()
    for _ in range(RANDOM_RUNS):
        instance = random_school(rng)
        expected = oracle_choice(instance, BUDGET)
        assert choice_flow(instance).selected == expected
        report = verify_balanced_and_jef(instance, expected)
        assert report.all_hold()
        assert report == oracle_report(instance, expected, BUDGET)
    assert time.perf_counter() - started < 300


def test_criterion_5_flow_optimum_matches_every_enumerated_witness():
    rng = random.Random(42)
    for _ in range(RANDOM_RUNS):
        instance = random_school(rng)
        net = build_network(instance)
        cert = compute_certificate(net)
        best = min_cost_max_flow(net)
        mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
        assert flow_signature(net, best) == mset.signature
        checks = flow.build_network(instance)
        assert flow.compute_certificate(checks) == (cert.value, mset.signature)
        for witness in mset.witnesses.values():
            lifted = matching_to_flow(instance, witness, network=net)
            assert (lifted.value, lifted.cost) == (cert.value, cert.cost)


def test_criterion_6_cost_encoding_reproduces_lexicographic_order():
    for capacity in range(0, 7):
        for ranks in range(1, 5):
            by_total: dict[int, list[tuple[tuple[int, ...], int]]] = {}
            for sig in itertools.product(range(capacity + 1), repeat=ranks):
                cost = signature_cost(sig, capacity)
                by_total.setdefault(sum(sig), []).append((sig, cost))
            for bucket in by_total.values():
                # equal-length tuples compare lexicographically
                for (a, cost_a), (b, cost_b) in itertools.combinations(bucket, 2):
                    if a > b:
                        assert cost_a < cost_b
                    elif a < b:
                        assert cost_a > cost_b
                    else:
                        assert cost_a == cost_b


def test_criterion_7_validity_checks_agree_and_witnesses_meet_targets():
    rng = random.Random(43)
    for _ in range(RANDOM_RUNS):
        instance = random_school(rng)
        targets = random_targets(rng, instance)
        net = build_network(instance)
        cert = compute_certificate(net)
        by_flow = flow_reference.check_validity_flow(instance, targets, network=net)
        counts = check_validity_flow(instance, targets)
        mset = enumerate_maximal_diversity_matchings(instance, BUDGET)
        assert (by_flow is not None) == oracle_targets_valid(mset, targets)
        assert (counts is not None) == (by_flow is not None)
        if by_flow is None:
            continue
        assert tuple(counts[key] for key in mset.group_keys) in mset.count_vectors
        witness = flow_to_matching(instance, by_flow, network=net)
        assert_valid_witness(instance, witness, targets, mset.signature)
        lifted = matching_to_flow(instance, witness, network=net)
        assert (lifted.value, lifted.cost) == (cert.value, cert.cost)


def test_criterion_8_max_min_ratio_is_exact_and_tight():
    rng = random.Random(44)
    for _ in range(RANDOM_RUNS):
        instance = random_school(rng)
        alpha, targets = crucial_vector(instance)
        oracle_alpha, oracle_targets = oracle_max_min_ratio(instance, BUDGET)
        assert alpha == oracle_alpha
        assert targets == oracle_targets

        groups = instance.groups()
        above = sorted(
            ratio
            for g in groups
            for k in range(1, g.size + 1)
            if (ratio := Fraction(k, g.size)) > alpha
        )
        if not above:
            continue
        next_targets = {g.key: math.ceil(above[0] * g.size) for g in groups}
        assert check_validity_flow(instance, next_targets) is None


def test_criterion_9_flow_backend_scales_with_groups_not_students():
    rows = run_bench(
        [10_000, 1_000_000], num_types=3, num_ranks=2, seed=2024, repeats=20
    )
    assert [row.students for row in rows] == [10_000, 1_000_000]
    assert [row.groups for row in rows] == [8, 8]
    payload = bench_payload(rows)
    assert payload["flow_growth"] < 3.0
