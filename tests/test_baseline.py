"""Unit tests for the baseline: the engine's walk from zero targets."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from factories import (
    baseline_overshoot_school,
    four_block_school,
    hard_regime_school,
    make_instance,
    random_school,
    two_group_school,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import check_matching

from reserve_match.baseline import sequential_baseline
from reserve_match.flow import (
    check_validity_flow,
    crucial_vector,
    flow_to_matching,
    solve,
)
from reserve_match.generator import generate_instance
from reserve_match.model import group_counts
from reserve_match.verify import verify_balanced_and_jef


def test_baseline_four_blocks_starves_the_overlap_group():
    result = sequential_baseline(four_block_school())
    counts = {key: result.per_group_counts[key] for key in result.per_group_counts}
    assert counts == {
        (): 50,
        ("t1",): 25,
        ("t2",): 25,
        ("t1", "t2"): 0,
    }
    assert result.min_ratio == 0
    assert len(result.selected) == 100


def test_baseline_two_groups():
    result = sequential_baseline(two_group_school())
    # s2 takes the reserved seat, s4 the general one, s3 gets nothing
    assert result.selected == frozenset({"s4", "s2"})
    assert result.signature == (1, 1)
    assert result.min_ratio == Fraction(1, 2)


def test_baseline_general_pool_shrinks_by_reserved_seats():
    # a rank-maximal choice fills the reserved seat, which leaves q=2 a
    # single seat for the untyped students
    instance = make_instance(
        [("a", []), ("b", []), ("c", ["t1"])],
        2,
        ["a", "b", "c"],
        ["t1"],
        {("t1", 1): 1},
    )
    result = sequential_baseline(instance)
    assert result.selected == frozenset({"a", "c"})


def test_baseline_is_rank_maximal_on_overshoot_school():
    # the t2 student outranks both t1 students, but seating it costs a
    # rank-1 seat, so the baseline passes over it just as the solver does
    instance = baseline_overshoot_school()
    result = sequential_baseline(instance)
    alpha, _targets = crucial_vector(instance)
    assert result.selected == frozenset({"a1", "a2"})
    assert result.signature == (2, 0, 0)
    assert result.min_ratio == alpha == 0


def test_baseline_falls_below_alpha_on_a_generated_school():
    instance = generate_instance(200, 3, 2, 2)
    result = sequential_baseline(instance)
    alpha, _targets = crucial_vector(instance)
    assert result.min_ratio == Fraction(3, 10)
    assert alpha == Fraction(14, 29)


def test_baseline_stays_below_alpha_on_minimum_quota_corpus():
    # every maximal-diversity choice has a worst-off ratio of at most alpha;
    # the baseline is one, whatever the quota ranks (see the property below)
    rng = random.Random(99)
    for _ in range(300):
        instance = minimum_quota_school(rng)
        result = sequential_baseline(instance)
        alpha, _targets = crucial_vector(instance)
        assert result.min_ratio <= alpha


def minimum_quota_school(rng: random.Random):
    num_students = rng.randint(0, 10)
    num_types = rng.randint(1, 3)
    types = [f"t{i}" for i in range(1, num_types + 1)]
    students = []
    for index in range(num_students):
        held = frozenset(t for t in types if rng.random() < 0.45)
        students.append((f"s{index}", sorted(held)))
    priority = [sid for sid, _held in students]
    rng.shuffle(priority)
    capacity = rng.randint(0, 6)
    quotas = {}
    for t in types:
        if rng.random() < 0.7:
            quotas[(t, 1)] = rng.randint(1, max(1, capacity))
    return make_instance(students, capacity, priority, types, quotas)


def test_baseline_selections_are_well_formed():
    # the counts are the selection's, and the matching that carries them
    # seats exactly the selected students
    rng = random.Random(7)
    for _ in range(100):
        instance = random_school(rng)
        result = sequential_baseline(instance)
        assert result.per_group_counts == group_counts(instance, result.selected)
        witness = check_validity_flow(instance, result.per_group_counts)
        matching = flow_to_matching(instance, witness)
        check_matching(instance, matching)
        assert frozenset(matching) == result.selected


def assert_three_axioms(instance) -> None:
    """The baseline is non-wasteful, maximally diverse and free of justified
    envy, has solve's signature, and reaches at most alpha."""
    result = sequential_baseline(instance)
    report = verify_balanced_and_jef(instance, result.selected)
    assert report.non_wasteful
    assert report.maximal_diversity
    assert report.justified_envy_free, report.envy_witness
    assert result.signature == solve(instance).signature
    assert result.min_ratio <= report.alpha


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_baseline_meets_three_axioms_on_random_schools(seed):
    assert_three_axioms(random_school(random.Random(seed), 10))


@pytest.mark.parametrize("style", ["uniform", "minmax"])
@pytest.mark.parametrize("num_types", [2, 3, 4])
def test_baseline_meets_three_axioms_on_generated_schools(num_types, style):
    for n, seed in ((300, 21), (3000, 22)):
        assert_three_axioms(generate_instance(n, num_types, 2, seed, style))


def test_baseline_meets_three_axioms_in_the_hard_regime():
    assert_three_axioms(hard_regime_school(3000, 308, 98))
