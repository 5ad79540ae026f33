"""Validity checks on the solver's own residual graph.

`flow._reroute` walks the standing network's residual edges (see
`flow._Residual`) under the optimum's residual capacities. These tests check
that it makes the same search as the reference over a separate list of
admissible steps (`reference_search.steps_reroute`): the same arc flows, or
the same cut, at every check the alpha search and the greedy walk make on the
golden corpus, on hard-regime schools, in every pool of a seeded market (warm
started solves included) and on random instances and targets. They also check
that every witness a validity check or a choice returns is an OptimalFlow
whose potentials are its network's optimum's, and that those certify it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import pytest
from factories import hard_regime_school, seeded_market
from hypothesis import given
from hypothesis import strategies as st
from reference_search import free_groups, steps_reroute
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances, markets

from reserve_match import flow
from reserve_match.flow import (
    FlowNetwork,
    OptimalFlow,
    _Cut,
    build_network,
    check_validity_flow,
)
from reserve_match.gda import run_gda
from reserve_match.model import TargetVector


@contextmanager
def _recording() -> Iterator[tuple[list[Any], list[Any]]]:
    """Record (network, targets, witness) of every validity check and
    (instance, start, result) of every choice made inside the block."""
    checks: list[Any] = []
    choices: list[Any] = []
    check, choose = flow.check_validity_flow, flow.choice_flow

    def recorded_check(instance, targets, *, network=None):
        net = network if network is not None else build_network(instance)
        witness = check(instance, targets, network=net)
        checks.append((net, dict(targets), witness))
        return witness

    def recorded_choice(instance, *args, **kwargs):
        result = choose(instance, *args, **kwargs)
        choices.append((instance, kwargs.get("start"), result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "check_validity_flow", recorded_check)
        patch.setattr(flow, "choice_flow", recorded_choice)
        yield checks, choices


def _assert_same_search(net: FlowNetwork, targets: TargetVector) -> None:
    best = flow.compute_certificate(net)
    found = flow._reroute(net, best, targets)
    reference = steps_reroute(net, best, targets)
    if isinstance(reference, _Cut):
        assert found == reference
    else:
        assert isinstance(found, OptimalFlow)
        assert (found.value, found.cost, found.arc_flows) == (
            reference.value,
            reference.cost,
            reference.arc_flows,
        )


def _assert_certified(net: FlowNetwork, witness: Any) -> None:
    assert isinstance(witness, OptimalFlow)
    assert witness.potentials == flow.compute_certificate(net).potentials
    assert flow._certified(net, witness)


def _assert_recorded(checks: list[Any], choices: list[Any]) -> None:
    for net, targets, witness in checks:
        _assert_same_search(net, targets)
        if witness is not None:
            _assert_certified(net, witness)
    for instance, start, result in choices:
        # the choice's network: a fresh one solved from the same start
        net = build_network(instance)
        net.start = start
        _assert_certified(net, result.witness)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_checks_search_like_the_reference(name):
    with _recording() as (checks, choices):
        flow.choice_flow(CORPUS[name][0]())
    assert checks
    _assert_recorded(checks, choices)


@pytest.mark.parametrize(
    "size, seed, reserved", [(100, 305, 92), (1000, 306, 98), (3000, 308, 98)]
)
def test_hard_regime_checks_search_like_the_reference(size, seed, reserved):
    with _recording() as (checks, choices):
        flow.choice_flow(hard_regime_school(size, seed, reserved))
    assert len(checks) >= 2
    _assert_recorded(checks, choices)


def test_market_pools_search_like_the_reference():
    with _recording() as (checks, choices):
        run_gda(seeded_market(200, 10))
    # warm-started pools: their optima come from the last choice's witness,
    # so a group's source arc need not be admissible there
    warm = [net for net, _targets, _witness in checks if net.start is not None]
    assert warm
    assert any(not free for net in warm for free in free_groups(net).values())
    _assert_recorded(checks, choices)


@PROPERTY_SETTINGS
@given(instance=instances(), data=st.data())
def test_random_targets_search_like_the_reference(instance, data):
    # each target within its group's size; their sum may pass F*
    targets = {
        g.key: data.draw(st.integers(0, g.size)) for g in instance.groups()
    }
    net = build_network(instance)
    _assert_same_search(net, targets)
    with _recording() as (checks, choices):
        check_validity_flow(instance, targets, network=net)
        flow.crucial_vector(instance, network=net)
        flow.choice_flow(instance)
    _assert_recorded(checks, choices)


@PROPERTY_SETTINGS
@given(multi=markets())
def test_random_market_checks_search_like_the_reference(multi):
    with _recording() as (checks, choices):
        run_gda(multi)
    _assert_recorded(checks, choices)
