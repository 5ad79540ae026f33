"""The alpha search's descent on cuts, against the bisection it replaced.

`flow._crucial_search` checks the largest candidate ratio whose targets fit
in F* and, after each failed check, moves to the largest candidate the
check's cut allows. These tests pin its alpha, targets and witness to the
two-stage bisection in `reference_search` on seeded and drawn instances and
test every cut against the oracle's enumeration of maximal-diversity count
vectors. The check budgets are guarded in `test_batched_search`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from factories import hard_regime_school, make_instance, random_school
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_search import (
    bisection_crucial_vector,
    fraction_last_ratio,
    free_groups,
)

from reserve_match import flow
from reserve_match.flow import (
    build_network,
    compute_certificate,
    crucial_vector,
    flow_group_counts,
)
from reserve_match.generator import generate_instance
from reserve_match.model import Instance, InternalInvariantError
from oracle import OracleBudget, balanced_count_vectors

BUDGET = OracleBudget(max_students=12, max_seats=80, max_enumerations=10**7)

DRAWN = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

SEEDED = {
    "uniform-1-type": lambda: generate_instance(300, 1, 2, 401),
    "minmax-2-types": lambda: generate_instance(500, 2, 3, 402, "minmax"),
    "uniform-3-types-tight": lambda: generate_instance(
        2000, 3, 2, 403, capacity=150
    ),
    "minmax-4-types-above": lambda: generate_instance(
        400, 4, 2, 404, "minmax", capacity=600
    ),
    "uniform-5-types-above": lambda: generate_instance(
        300, 5, 1, 405, capacity=301
    ),
    "minmax-6-types": lambda: generate_instance(3000, 6, 2, 406, "minmax"),
    "uniform-6-types-tight": lambda: generate_instance(
        3000, 6, 3, 407, capacity=500
    ),
    "hard-80": lambda: hard_regime_school(1200, 408, 80),
    "hard-92": lambda: hard_regime_school(1200, 409, 92),
    "hard-98": lambda: hard_regime_school(1200, 410, 98),
    "no-seats": lambda: generate_instance(200, 3, 2, 411, capacity=0),
    "empty": lambda: make_instance([], 3, [], ["t1"], {}),
    # a check here fails after augmenting paths already moved units, so a
    # cut bound summed from f* instead of the current flow skips alpha
    "rerouted-uniform": lambda: generate_instance(
        95, 2, 2, 114419, "uniform", capacity=73
    ),
    "rerouted-minmax": lambda: generate_instance(70, 2, 2, 600222, "minmax"),
}


def nonfree_reached_school() -> Instance:
    """q = 3, three rank-1 t1 seats, two t1 students and four untyped ones.

    Both t1 students sit in every maximal-diversity matching, so their
    group's source arc is saturated at nonzero reduced cost. The first check,
    at 1/2, asks for 2 untyped students, and its reroute search reaches the
    t1 group through the t1 seats. Counting that group in the cut would
    give the bound 3 over both groups, which allows 1/2 again; the free
    groups alone give 1, which allows 1/4.
    """
    untyped = [(f"u{i}", []) for i in range(1, 5)]
    typed = [(f"t{i}", ["t1"]) for i in range(1, 3)]
    priority = ["u1", "t1", "u2", "u3", "t2", "u4"]
    return make_instance(untyped + typed, 3, priority, ["t1"], {("t1", 1): 3})


def assert_same_search(instance: Instance) -> None:
    net = build_network(instance)
    alpha, targets, witness = flow._crucial_search(instance, net)
    ref_alpha, ref_targets, ref_witness = bisection_crucial_vector(instance, net)
    assert (alpha, targets) == (ref_alpha, ref_targets)
    assert flow_group_counts(net, witness) == flow_group_counts(net, ref_witness)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_descent_matches_bisection(name):
    assert_same_search(SEEDED[name]())


@st.composite
def generated(draw: st.DrawFn) -> Instance:
    num_students = draw(st.integers(1, 400))
    capacity = draw(st.one_of(st.none(), st.integers(0, 2 * num_students)))
    return generate_instance(
        num_students,
        draw(st.integers(1, 6)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 10**6)),
        draw(st.sampled_from(["uniform", "minmax"])),
        capacity=capacity,
    )


@settings(DRAWN, max_examples=60)
@given(generated())
def test_descent_matches_bisection_on_drawn_instances(instance):
    assert_same_search(instance)


@st.composite
def window_cases(draw: st.DrawFn) -> tuple[list[int], int]:
    """Group sizes and a bound from 0 to one past their sum."""
    sizes = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=300))
    return sizes, draw(st.integers(0, sum(sizes) + 1))


@settings(DRAWN, max_examples=200)
@given(window_cases())
def test_integer_window_matches_fraction_window(case):
    sizes, bound = case
    got = flow._last_ratio(sizes, bound)
    assert type(got) is Fraction
    assert got == fraction_last_ratio(sizes, bound)


def _traced_search(monkeypatch, instance: Instance):
    """(alpha, [(checked beta, its cut, the next beta)] per failed check)."""
    net = build_network(instance)
    betas: list[Fraction] = []
    cuts: list = []
    last_ratio, check = flow._last_ratio, flow.check_validity_flow

    def recorded_ratio(sizes, bound):
        betas.append(last_ratio(sizes, bound))
        return betas[-1]

    def recorded_check(*args, **kwargs):
        found = check(*args, **kwargs)
        cuts.append(net.cut if found is None else None)
        return found

    monkeypatch.setattr(flow, "_last_ratio", recorded_ratio)
    monkeypatch.setattr(flow, "check_validity_flow", recorded_check)
    alpha, _targets = crucial_vector(instance, network=net)
    monkeypatch.undo()
    # the first ratio starts the descent, each later one follows a failure
    assert len(betas) == len(cuts) and cuts[-1] is None
    failed = [
        (betas[i], cuts[i], betas[i + 1]) for i in range(len(cuts) - 1)
    ]
    assert all(cut is not None for _beta, cut, _next in failed)
    return alpha, failed


def assert_sound_cuts(monkeypatch, instance: Instance) -> int:
    """Check every cut of the search against the oracle; returns the number
    of failed checks."""
    alpha, failed = _traced_search(monkeypatch, instance)
    oracle_alpha, mset, _best = balanced_count_vectors(instance, BUDGET)
    assert alpha == oracle_alpha
    index = {key: i for i, key in enumerate(mset.group_keys)}
    sizes = {g.key: g.size for g in instance.groups()}
    for beta, cut, below in failed:
        members = [index[key] for key in cut.groups]
        assert all(
            sum(vector[i] for i in members) <= cut.bound
            for vector in mset.count_vectors
        )
        asked = sum(
            -(-beta.numerator * sizes[key] // beta.denominator)
            for key in cut.groups
        )
        assert asked > cut.bound
        assert alpha <= below < beta
    return len(failed)


def test_cuts_are_sound_on_random_schools(monkeypatch):
    rng = random.Random(412)
    failures = 0
    for _ in range(300):
        failures += assert_sound_cuts(monkeypatch, random_school(rng))
    assert failures > 20  # the descent is exercised, not just its first check


def test_cut_keeps_only_free_groups(monkeypatch):
    instance = nonfree_reached_school()
    net = build_network(instance)
    free = free_groups(net)
    assert free == {(): True, ("t1",): False}
    alpha, failed = _traced_search(monkeypatch, instance)
    assert alpha == Fraction(1, 4)
    assert [(beta, cut.groups, cut.bound, below) for beta, cut, below in failed] == [
        (Fraction(1, 2), ((),), 1, Fraction(1, 4))
    ]
    assert assert_sound_cuts(monkeypatch, instance) == 1


def test_a_cut_that_allows_the_checked_ratio_is_an_internal_error(monkeypatch):
    instance = generate_instance(200, 2, 2, 413)
    net = build_network(instance)
    cert = compute_certificate(net)
    calls: list[None] = []

    def rejecting(_instance, _targets, *, network):
        calls.append(None)
        assert len(calls) < 3, "the descent went on past a cut that did not fall"
        network.cut = flow._Cut(tuple(network.group_arcs), cert.value)
        return None

    monkeypatch.setattr(flow, "check_validity_flow", rejecting)
    with pytest.raises(InternalInvariantError, match="not below the checked point"):
        crucial_vector(instance, network=net)
    assert len(calls) == 1


@settings(DRAWN, max_examples=120)
@given(st.randoms(use_true_random=False))
def test_cuts_are_sound_on_drawn_schools(rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_sound_cuts(monkeypatch, random_school(rng, max_students=12))
