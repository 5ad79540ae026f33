"""The greedy walk and the alpha search of the flow backend, which both
descend on the cuts of failed validity checks.

Differential tests pin `choice_flow` and `crucial_vector` to the sequential
reference searches in `reference_search` on seeded and drawn instances from
1 to 10^4 students, including the hard regime where most seats are filled
after the targets are seeded. Count guards make sure the searches stay
within logarithmic bounds on validity checks, that the walk makes a handful
in the hard regime, that the alpha search makes at most two on the golden
corpus, and that a GDA run stays within its check budget. A cut that does
not fall is an internal error in the walk as in the alpha search.
"""

from __future__ import annotations

import pytest
from factories import hard_regime_school, seeded_market
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import (
    assert_same_choice,
    count_checks,
    full_candidate_crucial_vector,
    sequential_choice,
)
from test_alpha_descent import DRAWN, generated
from test_golden import CORPUS

from reserve_match import flow, gda
from reserve_match.flow import (
    build_network,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_group_counts,
)
from reserve_match.generator import generate_instance
from reserve_match.model import Instance, InternalInvariantError

SEEDED = {
    "gen-100-r2": lambda: generate_instance(100, 2, 2, 201),
    "gen-1000-r3-minmax": lambda: generate_instance(1000, 3, 3, 202, "minmax"),
    "gen-10000-r2": lambda: generate_instance(10000, 3, 2, 203),
    "gen-2000-tight-capacity": lambda: generate_instance(
        2000, 3, 2, 204, capacity=300
    ),
    "hard-100": lambda: hard_regime_school(100, 205),
    "hard-1000-reserved-98": lambda: hard_regime_school(1000, 206, 98),
    "hard-10000": lambda: hard_regime_school(10000, 207),
}


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_batched_searches_match_sequential_reference(name):
    instance = SEEDED[name]()
    net = build_network(instance)
    cert = compute_certificate(net)
    assert crucial_vector(
        instance, network=net, cert=cert
    ) == full_candidate_crucial_vector(instance, network=net, cert=cert)
    assert_same_choice(choice_flow(instance), sequential_choice(instance))


@pytest.mark.parametrize("name", ["gen-1000-r3-minmax", "hard-1000-reserved-98"])
def test_batched_greedy_matches_reference_from_zero_targets(name):
    # zero targets leave every seat to the walk, so many groups die in turn
    instance = SEEDED[name]()
    assert_same_choice(choice_flow(instance, {}), sequential_choice(instance, {}))


@st.composite
def walk_schools(draw: st.DrawFn) -> Instance:
    """A generated school (1-6 types, either quota style, capacity below or
    above the students) or a hard-regime one, where the walk fills most
    seats."""
    if draw(st.booleans()):
        return draw(generated())
    return hard_regime_school(
        draw(st.integers(2, 400)),
        draw(st.integers(0, 10**6)),
        draw(st.sampled_from([80, 92, 98])),
    )


@settings(DRAWN, max_examples=120)
@given(walk_schools(), st.booleans())
def test_walk_matches_sequential_reference_on_drawn_schools(instance, from_zero):
    targets = {} if from_zero else None
    fast = choice_flow(instance, targets)
    slow = sequential_choice(instance, targets)
    assert_same_choice(fast, slow)
    net = build_network(instance)
    assert flow_group_counts(net, fast.witness) == flow_group_counts(
        net, slow.witness
    )


@pytest.mark.parametrize("from_zero", [False, True])
def test_greedy_check_count_is_logarithmic(monkeypatch, from_zero):
    instance = hard_regime_school(3000, 208, 98)
    alpha, targets = crucial_vector(instance)
    if from_zero:
        alpha, targets = None, {}
    calls = count_checks(monkeypatch)
    result = choice_flow(instance, targets, alpha=alpha)
    n = len(instance.students) - sum(targets.values())
    rounds = len(instance.groups()) + 1
    bound = rounds * (2 * _ceil_log2(n + 1) + 1) + 2
    assert len(calls) <= bound
    # a walk with one check per admission could not meet the bound here
    admitted = len(result.selected) - sum(targets.values())
    assert admitted > bound


@pytest.mark.parametrize("from_zero", [False, True])
def test_greedy_walk_makes_a_handful_of_checks_in_the_hard_regime(
    monkeypatch, from_zero
):
    instance = hard_regime_school(3000, 208, 98)
    alpha, targets = crucial_vector(instance)
    if from_zero:
        alpha, targets = None, {}
    calls = count_checks(monkeypatch)
    choice_flow(instance, targets, alpha=alpha)
    assert len(calls) <= 6


def test_a_walk_cut_that_allows_the_checked_prefix_is_an_internal_error(
    monkeypatch,
):
    instance = hard_regime_school(300, 211, 98)
    alpha, targets = crucial_vector(instance)
    calls: list[None] = []
    check = flow.check_validity_flow

    def rejecting(checked, asked, *, network, cert):
        calls.append(None)
        if len(calls) == 1:  # the check of the crucial vector
            return check(checked, asked, network=network, cert=cert)
        assert len(calls) < 4, "the walk went on past a cut that did not fall"
        network.cut = flow._Cut(tuple(network.group_arcs), cert.max_value)
        return None

    monkeypatch.setattr(flow, "check_validity_flow", rejecting)
    with pytest.raises(InternalInvariantError, match="not below the checked point"):
        choice_flow(instance, targets, alpha=alpha)
    assert len(calls) == 2


def test_greedy_makes_no_checks_when_targets_fill_q(monkeypatch):
    instance = generate_instance(2000, 3, 2, 209)
    alpha, targets = crucial_vector(instance)
    assert sum(targets.values()) == instance.capacity
    calls = count_checks(monkeypatch)
    choice_flow(instance, targets, alpha=alpha)
    assert len(calls) == 1  # the target check, whose witness is reused


@pytest.mark.parametrize("name", ["hard-1000-reserved-98", "gen-10000-r2"])
def test_crucial_vector_check_count_is_logarithmic(monkeypatch, name):
    instance = SEEDED[name]()
    net = build_network(instance)
    cert = compute_certificate(net)
    calls = count_checks(monkeypatch)
    crucial_vector(instance, network=net, cert=cert)
    groups = instance.groups()
    largest = max(g.size for g in groups)
    bound = _ceil_log2(largest + 1) + _ceil_log2(len(groups) + 1) + 1
    assert len(calls) <= bound


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_crucial_vector_makes_at_most_two_checks_on_the_corpus(monkeypatch, name):
    instance = CORPUS[name][0]()
    net = build_network(instance)
    cert = compute_certificate(net)
    calls = count_checks(monkeypatch)
    crucial_vector(instance, network=net, cert=cert)
    assert 1 <= len(calls) <= 2


def test_gda_check_budget(monkeypatch):
    market = seeded_market(600, 2)
    calls = count_checks(monkeypatch)
    gda.run_gda(market)
    assert len(calls) <= 370
