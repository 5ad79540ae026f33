"""Warm starts of deferred acceptance's choices.

Each school's next choice is handed the witness of its last one, with that
optimum's potentials. The witness is the new pool's optimum as it is when
it already carries min(|S|, q) units and those potentials certify it on the
new pool's network; otherwise the solve starts from zero. Either way every
choice must equal the choice a solve from zero makes on a fresh cut of the
pool. Warm starts exist only on the flow engine, so every instance here is
sent to it (see `factories.on_the_flow_network`).
"""

from __future__ import annotations

from itertools import product

import pytest
from factories import on_the_flow_network, seeded_market
from hypothesis import given
from reference_search import (
    assert_same_choice,
    assert_same_cold_optimum,
    count_checks,
)
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import flow
from reserve_match.flow import (
    OptimalFlow,
    build_network,
    check_validity_flow,
    choice_flow,
)
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.generator import generate_instance
from reserve_match.model import ChoiceResult, Instance, restrict_instance


def _gda_choices(
    multi: MultiInstance,
) -> list[tuple[Instance, Instance, OptimalFlow | None, ChoiceResult]]:
    """(school instance, pool cut, start, result) of every choice GDA makes."""
    roots = {id(instance.fixed): instance for instance in multi.instances.values()}
    calls = []
    original = flow.choice_flow

    def recorded(instance, *args, **kwargs):
        result = original(instance, *args, **kwargs)
        root = roots[id(instance.fixed)]
        calls.append((root, instance, kwargs.get("start"), result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "choice_flow", recorded)
        run_gda(multi)
    return calls


def _cold(root: Instance, pool) -> ChoiceResult:
    return choice_flow(restrict_instance(root, pool))


def _assert_warm_matches_cold(multi: MultiInstance) -> None:
    for root, cut, _start, warm in _gda_choices(multi):
        assert_same_choice(warm, _cold(root, cut.priority))


@pytest.mark.parametrize("size, seed", list(product([200, 600, 2000], [1, 2, 7])))
def test_warm_choices_match_cold_choices_on_seeded_markets(size, seed):
    _assert_warm_matches_cold(seeded_market(size, seed))


@PROPERTY_SETTINGS
@given(markets())
def test_warm_choices_match_cold_choices_on_drawn_markets(multi):
    _assert_warm_matches_cold(multi)


def test_golden_market_takes_both_starts(monkeypatch):
    multi = seeded_market(200, 1)
    verdicts = []
    original = flow._certified

    def recorded(network, start):
        verdicts.append(original(network, start))
        return verdicts[-1]

    monkeypatch.setattr(flow, "_certified", recorded)
    calls = _gda_choices(multi)
    # every choice but each school's first has a start to try
    assert len(verdicts) == sum(start is not None for *_ends, start, _r in calls)
    assert len(verdicts) == len(calls) - len(multi.schools)
    assert True in verdicts and False in verdicts


def _solver_builds(monkeypatch) -> list[None]:
    """One entry per solver built while patched; a solver always starts
    from zero."""
    builds: list[None] = []
    original = flow._MinCostFlow.__init__

    def recorded(self, residual, capacities):
        builds.append(None)
        original(self, residual, capacities)

    monkeypatch.setattr(flow._MinCostFlow, "__init__", recorded)
    return builds


def _certified_case() -> tuple[Instance, Instance, OptimalFlow]:
    """A GDA choice of the golden market whose start was certified."""
    for root, cut, start, _result in _gda_choices(seeded_market(200, 1)):
        if start is not None and flow._certified(build_network(cut), start):
            return root, cut, start
    raise AssertionError("no certified start in the golden market")


def test_a_start_with_a_negative_reduced_cost_is_refused(monkeypatch):
    root, cut, start = _certified_case()
    net = build_network(cut)
    pot = list(start.potentials)
    # an arc with room left whose head is lifted past its reduced cost
    for e, (u, v) in enumerate(zip(net.tails, net.heads)):
        if start.arc_flows[e] < net.capacities[e]:
            pot[v] += net.costs[e] + pot[u] - pot[v] + 1
            break
    nudged = OptimalFlow(
        value=start.value,
        cost=start.cost,
        arc_flows=start.arc_flows,
        potentials=tuple(pot),
    )
    assert not flow._certified(net, nudged)
    cold = _cold(root, cut.priority)
    optima = []
    solve = flow.min_cost_max_flow

    def recorded(network):
        optima.append(solve(network))
        return optima[-1]

    monkeypatch.setattr(flow, "min_cost_max_flow", recorded)
    builds = _solver_builds(monkeypatch)
    assert_same_choice(choice_flow(cut, start=start), cold)
    # the certified start carries the pool's min(|S|, q) units already, so
    # it is f* itself and no solver is built
    assert start.value == min(len(cut.priority), cut.capacity)
    assert optima[0] is start
    assert builds == []
    assert_same_choice(choice_flow(cut, start=nudged), cold)
    assert optima[1] is not nudged
    assert len(builds) == 1


def test_a_start_over_a_shrunk_group_is_refused(monkeypatch):
    multi = seeded_market(200, 1)
    root, _cut, _start, last = next(
        call for call in _gda_choices(multi) if len(call[3].selected) > 1
    )
    # the last choice's witness carries every selected student; a pool
    # that drops one leaves their group a unit short of it
    dropped = sorted(last.selected)[0]
    smaller = restrict_instance(root, last.selected - {dropped})
    assert not flow._certified(build_network(smaller), last.witness)
    cold = _cold(root, smaller.priority)
    builds = _solver_builds(monkeypatch)
    assert_same_choice(choice_flow(smaller, start=last.witness), cold)
    assert len(builds) == 1


def test_a_certified_start_that_is_not_full_is_solved_from_zero(monkeypatch):
    # two nested pools, both within q: the small pool's witness is a
    # min-cost flow of the large pool too, one unit short of its maximum
    root = generate_instance(40, 2, 2, 0)
    first = list(root.priority)
    small = restrict_instance(root, first[:4])
    large = restrict_instance(root, first[:5])
    assert len(large.priority) <= large.capacity
    start = choice_flow(small).witness
    assert flow._certified(build_network(large), start)
    assert start.value == len(small.priority) < len(large.priority)
    cold = choice_flow(large)
    builds = _solver_builds(monkeypatch)
    warm = choice_flow(large, start=start)
    assert len(builds) == 1
    assert_same_choice(warm, cold)
    assert warm.witness == cold.witness


def test_warm_starts_keep_checks_and_cut_dijkstra_passes(monkeypatch):
    passes = [0]
    augment = flow._MinCostFlow._augment

    def counted_augment(self, source, target):
        passes[0] += 1
        return augment(self, source, target)

    monkeypatch.setattr(flow._MinCostFlow, "_augment", counted_augment)
    checks = count_checks(monkeypatch)
    run_gda(seeded_market(600, 2))
    # solves from zero made 2,453 passes here; each choice makes one check,
    # and a certified start, which already fills its pool, makes none
    assert len(checks) == 226
    assert passes[0] == 174


def _assert_witness_is_the_fresh_check(
    instance: Instance, start: OptimalFlow | None, result: ChoiceResult
) -> None:
    """A choice's witness is the flow that a check of its counts gives on a
    fresh network solved from the same start, so the path the walk took to
    those counts cannot change what the next warm start reads."""
    net = build_network(instance)
    net.start = start
    fresh = check_validity_flow(instance, result.per_group_counts, network=net)
    assert fresh is not None
    assert result.witness.arc_flows == fresh.arc_flows


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_witness_is_the_fresh_check_of_the_counts_on_the_corpus(name):
    instance = CORPUS[name][0]()
    _assert_witness_is_the_fresh_check(instance, None, choice_flow(instance))


def test_witness_is_the_fresh_check_of_the_counts_on_seeded_pools():
    for _root, cut, start, result in _gda_choices(seeded_market(200, 1)):
        _assert_witness_is_the_fresh_check(cut, start, result)


def test_cold_optimum_on_seeded_pools_matches_per_cut_reference():
    for root, cut, _start, _result in _gda_choices(seeded_market(200, 1)):
        fresh = restrict_instance(root, cut.priority)
        assert_same_cold_optimum(build_network(fresh), fresh)
