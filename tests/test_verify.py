"""Unit tests for the axiom verifiers, in oracle and structural mode."""

from __future__ import annotations

import random
from fractions import Fraction

from factories import random_school, two_group_school, two_type_column_school

from reserve_match.oracle import OracleBudget
from reserve_match.solve import solve
from reserve_match.verify import (
    MODE_ORACLE,
    MODE_STRUCTURAL,
    verify_balanced_and_jef,
)

# forces the structural fallback without touching the instance
TINY_BUDGET = OracleBudget(max_students=0, max_seats=0, max_enumerations=0)

# random quotas can exceed the default seat budget; this keeps the oracle on
WIDE_BUDGET = OracleBudget(max_students=12, max_seats=64, max_enumerations=10**7)


def test_good_selection_passes_all_axioms():
    report = verify_balanced_and_jef(two_group_school(), {"s2", "s4"})
    assert report.mode == MODE_ORACLE
    assert report.all_hold()
    assert report.alpha == Fraction(1, 2)
    assert report.envy_witness is None


def test_unbalanced_selection_flags_envy():
    # both typed students selected: maximal diversity holds, balance does not,
    # and s4 justifiably envies the lowest-priority insider s1
    report = verify_balanced_and_jef(two_group_school(), {"s1", "s2"})
    assert report.non_wasteful
    assert report.maximal_diversity
    assert not report.balanced
    assert not report.justified_envy_free
    assert report.envy_witness == ("s4", "s1")


def test_priority_inversion_within_group_flags_envy():
    # balanced counts but the wrong member of the typed group is in
    report = verify_balanced_and_jef(two_group_school(), {"s1", "s4"})
    assert report.balanced
    assert not report.justified_envy_free
    assert report.envy_witness == ("s2", "s1")


def test_wasteful_selection_fails_cleanly():
    report = verify_balanced_and_jef(two_group_school(), {"s4"})
    assert not report.non_wasteful
    assert not report.maximal_diversity
    assert not report.balanced
    assert report.justified_envy_free


def test_structural_mode_matches_oracle_mode():
    fixtures = [
        (two_group_school(), {"s2", "s4"}),
        (two_group_school(), {"s1", "s2"}),
        (two_group_school(), {"s1", "s4"}),
        (two_group_school(), {"s4"}),
        (two_type_column_school(), {"s11", "s12", "s21", "s22"}),
        (two_type_column_school(), {"s11", "s12", "s13", "s21"}),
    ]
    for instance, selected in fixtures:
        by_oracle = verify_balanced_and_jef(instance, selected)
        structural = verify_balanced_and_jef(instance, selected, TINY_BUDGET)
        assert by_oracle.mode == MODE_ORACLE
        assert structural.mode == MODE_STRUCTURAL
        assert (
            by_oracle.non_wasteful,
            by_oracle.maximal_diversity,
            by_oracle.balanced,
            by_oracle.justified_envy_free,
            by_oracle.alpha,
            by_oracle.envy_witness,
        ) == (
            structural.non_wasteful,
            structural.maximal_diversity,
            structural.balanced,
            structural.justified_envy_free,
            structural.alpha,
            structural.envy_witness,
        )


def test_modes_agree_on_random_selections():
    rng = random.Random(4021)
    for _ in range(60):
        instance = random_school(rng, max_students=7)
        students = [s.id for s in instance.students]
        rng.shuffle(students)
        selected = set(students[: rng.randint(0, len(students))])
        by_oracle = verify_balanced_and_jef(instance, selected, WIDE_BUDGET)
        structural = verify_balanced_and_jef(instance, selected, TINY_BUDGET)
        assert by_oracle.mode == MODE_ORACLE
        assert structural.mode == MODE_STRUCTURAL
        assert by_oracle.alpha == structural.alpha
        assert by_oracle.all_hold() == structural.all_hold()
        assert by_oracle.envy_witness == structural.envy_witness


def test_solver_outputs_always_verify():
    rng = random.Random(515)
    for _ in range(40):
        instance = random_school(rng, max_students=8)
        report = verify_balanced_and_jef(instance, solve(instance).selected)
        assert report.all_hold(), (instance, report)
