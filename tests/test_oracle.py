"""Unit tests for the enumeration oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from factories import (
    four_block_school,
    make_instance,
    two_group_school,
    two_type_column_school,
)
from reference_search import check_matching, oracle_choice, oracle_max_min_ratio

from oracle import (
    OracleBudget,
    OracleBudgetExceeded,
    balanced_count_vectors,
    enumerate_maximal_diversity_matchings,
    matching_signature,
)


def test_enumeration_two_groups():
    instance = two_group_school()
    mset = enumerate_maximal_diversity_matchings(instance)
    assert mset.group_keys == ((), ("t1",))
    assert mset.signature == (1, 1)
    # besides the balanced split, both typed students can fill the two seats
    assert mset.count_vectors == frozenset({(1, 1), (0, 2)})
    for vector in mset.count_vectors:
        witness = mset.witnesses[vector]
        check_matching(instance, witness)
        assert matching_signature(instance, witness) == (1, 1)
        assert dict(zip(mset.group_keys, vector)) == {
            (): vector[0],
            ("t1",): vector[1],
        }


def test_enumeration_columns():
    mset = enumerate_maximal_diversity_matchings(two_type_column_school())
    assert mset.signature == (4, 0)
    # four reserved seats split any way across the two columns
    assert mset.count_vectors == frozenset({(4, 0), (3, 1), (2, 2), (1, 3)})
    for vector, witness in mset.witnesses.items():
        assert tuple(
            sum(1 for sid in witness if sid.startswith(prefix))
            for prefix in ("s1", "s2")
        ) == vector


def test_enumeration_empty_instance():
    mset = enumerate_maximal_diversity_matchings(make_instance([], 2, [], ["t1"], {}))
    assert mset.signature == (0,)
    assert mset.count_vectors == frozenset({()})


def test_oracle_max_min_ratio_fixtures():
    alpha, crucial = oracle_max_min_ratio(two_group_school())
    assert alpha == Fraction(1, 2)
    assert crucial == {(): 1, ("t1",): 1}

    alpha, crucial = oracle_max_min_ratio(two_type_column_school())
    assert alpha == Fraction(2, 5)
    assert crucial == {("t1",): 2, ("t2",): 2}

    alpha, crucial = oracle_max_min_ratio(two_type_column_school(with_extra=True))
    assert alpha == Fraction(1, 3)
    assert crucial == {("t1",): 2, ("t2",): 1}


def test_balanced_count_vectors_columns():
    alpha, _mset, best = balanced_count_vectors(two_type_column_school())
    assert alpha == Fraction(2, 5)
    assert best == frozenset({(2, 2)})


def test_oracle_choice_fixtures():
    assert oracle_choice(two_group_school()) == frozenset({"s2", "s4"})
    assert oracle_choice(two_type_column_school()) == frozenset(
        {"s11", "s12", "s21", "s22"}
    )
    assert oracle_choice(two_type_column_school(with_extra=True)) == frozenset(
        {"s11", "s12", "s13", "s21"}
    )


def test_oracle_scaled_blocks_needs_bigger_budget():
    # 40 students exceed the default budget; an explicit budget unlocks it
    instance = four_block_school(group_size=10)
    with pytest.raises(OracleBudgetExceeded):
        oracle_max_min_ratio(instance)
    alpha, crucial = oracle_max_min_ratio(
        instance, OracleBudget(max_students=40, max_seats=40, max_enumerations=10**7)
    )
    assert alpha == Fraction(1, 2)
    assert all(value == 5 for value in crucial.values())


def test_budget_seat_and_node_limits():
    instance = two_group_school()
    with pytest.raises(OracleBudgetExceeded, match="seats"):
        enumerate_maximal_diversity_matchings(
            instance, OracleBudget(max_students=12, max_seats=1)
        )
    with pytest.raises(OracleBudgetExceeded, match="enumeration"):
        enumerate_maximal_diversity_matchings(
            instance, OracleBudget(max_students=12, max_seats=18, max_enumerations=1)
        )

