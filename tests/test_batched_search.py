"""The batched greedy walk and the narrowed alpha search of the flow backend.

Differential tests pin `choice_flow` and `crucial_vector` to the sequential
reference searches in `reference_search` on seeded instances from 10^2 to
10^4 students, including the hard regime where most seats are filled after
the targets are seeded. Count guards make sure the searches stay logarithmic
in the number of validity checks, that the alpha search makes at most two on
the golden corpus, and that a GDA run stays within its check budget.
"""

from __future__ import annotations

import pytest
from factories import hard_regime_school, seeded_market
from reference_search import (
    assert_same_choice,
    full_candidate_crucial_vector,
    sequential_choice,
)
from test_golden import CORPUS

from reserve_match import flow, gda
from reserve_match.flow import (
    build_network,
    choice_flow,
    compute_certificate,
    crucial_vector,
)
from reserve_match.generator import generate_instance

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


def _count_checks(monkeypatch) -> list[None]:
    """Record one entry per call of flow.check_validity_flow from now on."""
    calls: list[None] = []
    original = flow.check_validity_flow

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "check_validity_flow", counted)
    return calls


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


@pytest.mark.parametrize("from_zero", [False, True])
def test_greedy_check_count_is_logarithmic(monkeypatch, from_zero):
    instance = hard_regime_school(3000, 208, 98)
    alpha, targets = crucial_vector(instance)
    if from_zero:
        alpha, targets = None, {}
    calls = _count_checks(monkeypatch)
    result = choice_flow(instance, targets, alpha=alpha)
    n = len(instance.students) - sum(targets.values())
    rounds = len(instance.groups()) + 1
    bound = rounds * (2 * _ceil_log2(n + 1) + 1) + 2
    assert len(calls) <= bound
    # a walk with one check per admission could not meet the bound here
    admitted = len(result.selected) - sum(targets.values())
    assert admitted > bound


def test_greedy_makes_no_checks_when_targets_fill_q(monkeypatch):
    instance = generate_instance(2000, 3, 2, 209)
    alpha, targets = crucial_vector(instance)
    assert sum(targets.values()) == instance.capacity
    calls = _count_checks(monkeypatch)
    choice_flow(instance, targets, alpha=alpha)
    assert len(calls) == 1  # the target check, whose witness is reused


@pytest.mark.parametrize("name", ["hard-1000-reserved-98", "gen-10000-r2"])
def test_crucial_vector_check_count_is_logarithmic(monkeypatch, name):
    instance = SEEDED[name]()
    net = build_network(instance)
    cert = compute_certificate(net)
    calls = _count_checks(monkeypatch)
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
    calls = _count_checks(monkeypatch)
    crucial_vector(instance, network=net, cert=cert)
    assert 1 <= len(calls) <= 2


def test_gda_check_budget(monkeypatch):
    market = seeded_market(600, 2)
    calls = _count_checks(monkeypatch)
    gda.run_gda(market)
    assert len(calls) <= 450
