"""The reference engine's validity checks on its own residual graph.

`flow_reference.reroute` walks the network's residual edges (see
`flow_reference.Residual`) under the optimum's residual capacities. These
tests check that it makes the same search as the reference over a separate
list of admissible steps (`reference_search.steps_reroute`): the same arc
flows, or the same cut, at every check the alpha search and the greedy walk
make on the golden corpus, on hard-regime schools, in every pool of a
seeded market and on random instances and targets, with the package's
searches running on the reference network (`flow.build_network` set to
`flow_reference.build_network`). They also check that every witness a
check returns is an OptimalFlow whose potentials are its network's
optimum's and certify it, and that the counts each choice ends on have
such a witness that carries them exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import flow_reference
import pytest
from factories import hard_regime_school, recorded_choices, seeded_market
from flow_reference import (
    FlowNetwork,
    OptimalFlow,
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_group_counts,
)
from hypothesis import given
from hypothesis import strategies as st
from reference_search import steps_reroute
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances, markets

from reserve_match import flow
from reserve_match.flow import _Cut
from reserve_match.gda import run_gda
from reserve_match.model import TargetVector


@contextmanager
def _recording() -> Iterator[tuple[list[Any], list[Any]]]:
    """Run the package's searches on the reference network inside the
    block, and record (network, targets, witness) of every check and
    (pool, choice) of every choice made there (see recorded_choices)."""
    checks: list[Any] = []
    check = flow_reference.check_validity_flow

    def recorded_check(instance, targets, *, network=None):
        net = network if network is not None else build_network(instance)
        witness = check(instance, targets, network=net)
        checks.append((net, dict(targets), witness))
        return witness

    with pytest.MonkeyPatch.context() as patch, recorded_choices() as choices:
        patch.setattr(flow, "build_network", build_network)
        patch.setattr(flow_reference, "check_validity_flow", recorded_check)
        yield checks, choices


def _assert_same_search(net: FlowNetwork, targets: TargetVector) -> None:
    best = compute_certificate(net)
    found = flow_reference.reroute(net, best, targets)
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
    """The witness has the optimum's potentials, and they prove it a
    min-cost flow of the network: every arc flow within its capacity, flow
    conserved, no residual arc of negative reduced cost."""
    assert isinstance(witness, OptimalFlow)
    pot = witness.potentials
    assert pot == compute_certificate(net).potentials
    balance = [0] * net.node_count
    arcs = zip(net.tails, net.heads, net.capacities, net.costs)
    for f, (u, v, cap, cost) in zip(witness.arc_flows, arcs):
        assert 0 <= f <= cap
        reduced = cost + pot[u] - pot[v]
        assert not (reduced < 0 and f < cap) and not (reduced > 0 and f > 0)
        balance[u] -= f
        balance[v] += f
    assert not any(balance[flow_reference.SINK + 1 :])


def _assert_recorded(checks: list[Any], choices: list[Any]) -> None:
    for net, targets, witness in checks:
        _assert_same_search(net, targets)
        if witness is not None:
            _assert_certified(net, witness)
    for pool, choice in choices:
        # a fresh network's check of the counts the choice ended on
        net = build_network(pool)
        witness = check_validity_flow(pool, choice.counts, network=net)
        _assert_certified(net, witness)
        assert flow_group_counts(net, witness) == choice.counts


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
    assert len(choices) > len(seeded_market(200, 10).schools)
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
