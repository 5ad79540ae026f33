"""Unit tests for the axiom verifier, whose alpha and validity test come
from the flow engine.

On small schools every report is compared with the four verdicts by
enumeration (`reference_search.oracle_report`, built on the oracle in
`oracle.py`). Above the oracle's budget, envy witnesses are compared with
the literal scan over every (unselected, lower-priority selected) pair, and
guards bound the work `verify` does on a solver's output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from factories import (
    hard_regime_school,
    random_school,
    two_group_school,
    two_type_column_school,
)
from oracle import OracleBudget
from reference_search import count_checks, literal_envy_witness, oracle_report

from reserve_match import verify

from reserve_match.flow import (
    build_network,
    check_validity_flow,
    crucial_vector,
    solve,
)
from reserve_match.generator import generate_instance
from reserve_match.verify import verify_balanced_and_jef

# random quotas can exceed the default seat budget; this keeps the oracle on
WIDE_BUDGET = OracleBudget(max_students=12, max_seats=64, max_enumerations=10**7)


def test_good_selection_passes_all_axioms():
    report = verify_balanced_and_jef(two_group_school(), {"s2", "s4"})
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


def test_verify_matches_oracle_on_fixtures():
    fixtures = [
        (two_group_school(), {"s2", "s4"}),
        (two_group_school(), {"s1", "s2"}),
        (two_group_school(), {"s1", "s4"}),
        (two_group_school(), {"s4"}),
        (two_type_column_school(), {"s11", "s12", "s21", "s22"}),
        (two_type_column_school(), {"s11", "s12", "s13", "s21"}),
    ]
    for instance, selected in fixtures:
        report = verify_balanced_and_jef(instance, selected)
        assert report == oracle_report(instance, selected), selected


def test_verify_matches_oracle_on_random_selections():
    rng = random.Random(4021)
    for _ in range(60):
        instance = random_school(rng, max_students=7)
        students = [s.id for s in instance.students]
        rng.shuffle(students)
        selected = set(students[: rng.randint(0, len(students))])
        report = verify_balanced_and_jef(instance, selected)
        assert report == oracle_report(instance, selected, WIDE_BUDGET)


def test_solver_outputs_always_verify():
    rng = random.Random(515)
    for _ in range(40):
        instance = random_school(rng, max_students=8)
        report = verify_balanced_and_jef(instance, solve(instance).selected)
        assert report.all_hold(), (instance, report)


def test_structural_witness_matches_literal_scan_at_scale():
    # solver selections with one or two members swapped for outsiders keep
    # the size, so the flow check is an exact-count test and witnesses occur;
    # five types make up to 32 groups, many tied at the smallest ratio, so a
    # swap's worst-off ratio often comes from a group outside the swap
    rng = random.Random(6151)
    schools = [
        generate_instance(100, 2, 2, 611),
        generate_instance(400, 3, 2, 612, "minmax"),
        hard_regime_school(300, 613),
        hard_regime_school(1000, 614, 98),
        generate_instance(300, 5, 2, 711),
        generate_instance(600, 5, 3, 712, "minmax"),
    ]
    witnesses = 0
    for instance in schools:
        network = build_network(instance)
        alpha, _targets = crucial_vector(instance, network=network)

        def valid(counts, instance=instance, network=network):
            found = check_validity_flow(instance, counts, network=network)
            return found is not None

        chosen = sorted(solve(instance).selected)
        others = sorted(set(instance.priority) - set(chosen))
        for _ in range(4):
            k = rng.randint(1, 2)
            selected = set(chosen) - set(rng.sample(chosen, k))
            selected |= set(rng.sample(others, k))
            report = verify_balanced_and_jef(instance, selected)
            assert report.alpha == alpha
            literal = literal_envy_witness(instance, selected, alpha, valid)
            assert report.envy_witness == literal
            witnesses += literal is not None
    assert witnesses >= 8


def test_verify_of_a_solver_output_checks_at_most_once_per_group(monkeypatch):
    # a swap out of a balanced selection that keeps the worst-off ratio at
    # alpha is rare, so testing balance before validity leaves almost every
    # group pair without a validity check
    instance = generate_instance(20000, 6, 2, 7)
    selected = solve(instance).selected
    checks = count_checks(monkeypatch)
    report = verify_balanced_and_jef(instance, selected)
    assert report.all_hold()
    assert len(checks) <= len(instance.group_keys()) + 1


def test_verify_of_a_solver_output_takes_the_minimum_ratio_at_most_twice(
    monkeypatch,
):
    # each swap's balance follows from the two swapped groups' new ratios
    # and the smallest ratio of the others, so no swap takes the O(G)
    # minimum over every group
    instance = generate_instance(20000, 7, 2, 7)
    assert len(instance.group_keys()) == 128
    selected = solve(instance).selected
    calls: list[None] = []
    original = verify.min_count_ratio

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "min_count_ratio", counted)
    assert verify_balanced_and_jef(instance, selected).all_hold()
    assert len(calls) <= 2
