"""Unit tests for the axiom verifier: one checker whose alpha and validity
test come from the oracle (oracle mode) or the flow engine (structural mode).

Envy witnesses are also compared with the literal scan over every
(unselected, lower-priority selected) pair in `reference_search`.
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
from reference_search import literal_envy_witness, oracle_count_validity

from reserve_match.flow import (
    build_network,
    check_validity_flow,
    compute_certificate,
    crucial_vector,
)
from reserve_match.generator import generate_instance
from reserve_match.oracle import OracleBudget, balanced_count_vectors
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
        alpha, mset, _ = balanced_count_vectors(instance, WIDE_BUDGET)
        literal = literal_envy_witness(
            instance, selected, alpha, oracle_count_validity(mset)
        )
        assert by_oracle.envy_witness == literal
        assert structural.envy_witness == literal


def test_solver_outputs_always_verify():
    rng = random.Random(515)
    for _ in range(40):
        instance = random_school(rng, max_students=8)
        report = verify_balanced_and_jef(instance, solve(instance).selected)
        assert report.all_hold(), (instance, report)


def test_structural_witness_matches_literal_scan_at_scale():
    # solver selections with one or two members swapped for outsiders keep
    # the size, so the flow check is an exact-count test and witnesses occur
    rng = random.Random(6151)
    schools = [
        generate_instance(100, 2, 2, 611),
        generate_instance(400, 3, 2, 612, "minmax"),
        hard_regime_school(300, 613),
        hard_regime_school(1000, 614, 98),
    ]
    witnesses = 0
    for instance in schools:
        network = build_network(instance)
        cert = compute_certificate(network)
        alpha, _targets = crucial_vector(instance, network=network, cert=cert)

        def valid(counts, instance=instance, network=network, cert=cert):
            found = check_validity_flow(instance, counts, network=network, cert=cert)
            return found is not None

        chosen = sorted(solve(instance).selected)
        others = sorted(set(instance.priority) - set(chosen))
        for _ in range(4):
            k = rng.randint(1, 2)
            selected = set(chosen) - set(rng.sample(chosen, k))
            selected |= set(rng.sample(others, k))
            report = verify_balanced_and_jef(instance, selected, TINY_BUDGET)
            assert report.mode == MODE_STRUCTURAL
            assert report.alpha == alpha
            literal = literal_envy_witness(instance, selected, alpha, valid)
            assert report.envy_witness == literal
            witnesses += literal is not None
    assert witnesses >= 8
