"""The alpha search and the greedy walk share their first check.

choice_flow(instance) makes its first check at the largest candidate ratio
beta whose targets fit in F*, plus the longest prefix of live candidates
that fits: when it holds, alpha is beta and the walk is over. These tests
check that this gives, field by field and witness flow included, the choice
that the crucial vector and alpha passed in give (the path that checks the
targets first), on drawn instances, the golden corpus, hard-regime schools
whose first check fails, and every pool deferred acceptance chooses from.
They also check that deferred acceptance takes a pool that fits its
school's seats whole, without a choice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

import pytest
from factories import hard_regime_school, seeded_market
from hypothesis import given
from reference_search import assert_same_choice
from test_gda import assert_replays_match_references
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances

from reserve_match import flow
from reserve_match.flow import (
    OptimalFlow,
    _ratio_search,
    _Walk,
    build_network,
    choice_flow,
    compute_certificate,
    crucial_vector,
)
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.model import ChoiceResult, Instance


def _two_checks(instance: Instance, start: Optional[OptimalFlow]) -> ChoiceResult:
    """The choice with its crucial vector passed in, so that the targets
    are checked on their own before the walk starts."""
    alpha, targets = crucial_vector(instance)
    return choice_flow(instance, targets, alpha=alpha, start=start)


def _assert_same_as_two_checks(
    instance: Instance, start: Optional[OptimalFlow] = None
) -> None:
    shared = choice_flow(instance, start=start)
    two = _two_checks(instance, start)
    assert_same_choice(shared, two)
    assert shared.witness.arc_flows == two.witness.arc_flows
    assert shared.witness.potentials == two.witness.potentials


def _first_check(instance: Instance) -> str:
    """Which way choice_flow(instance) starts: with no shared check (beta's
    targets fill F* or no candidate is live), or with one that holds or
    fails, and then whether alpha is beta."""
    net = build_network(instance)
    best = compute_certificate(net)
    beta, targets_at, _below = _ratio_search(instance, best.value)
    walk = _Walk(instance, targets_at(beta), best.value)
    if not walk.point:
        return "none"
    if flow.check_validity_flow(instance, walk.targets_at(walk.point), network=net):
        return "holds"
    alpha, _targets = crucial_vector(instance)
    return "fails, alpha is beta" if alpha == beta else "fails, alpha below beta"


def _checked(monkeypatch: Any) -> list[tuple[dict, bool]]:
    """Record (targets, verdict) of every validity check from now on."""
    checks: list[tuple[dict, bool]] = []
    check = flow.check_validity_flow

    def recorded(instance, targets, *, network=None):
        witness = check(instance, targets, network=network)
        checks.append((dict(targets), witness is not None))
        return witness

    monkeypatch.setattr(flow, "check_validity_flow", recorded)
    return checks


@PROPERTY_SETTINGS
@given(instances())
def test_shared_first_check_matches_two_checks_on_drawn_instances(instance):
    _assert_same_as_two_checks(instance)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_shared_first_check_matches_two_checks_on_the_corpus(name):
    _assert_same_as_two_checks(CORPUS[name][0]())


@pytest.mark.parametrize("size, seed", [(600, 2), (2000, 7)])
def test_shared_first_check_matches_two_checks_on_market_pools(size, seed):
    pools = []
    choose = flow.choice_flow

    def recorded(instance, *args, **kwargs):
        pools.append((instance, kwargs.get("start")))
        return choose(instance, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "choice_flow", recorded)
        run_gda(seeded_market(size, seed))
    assert len(pools) > 200
    for cut, start in pools:
        _assert_same_as_two_checks(cut, start)


def test_a_first_check_that_holds_is_the_only_check(monkeypatch):
    instance = hard_regime_school(60, 2, 50)
    assert _first_check(instance) == "holds"
    checks = _checked(monkeypatch)
    result = choice_flow(instance)
    assert [verdict for _targets, verdict in checks] == [True]
    assert checks[0][0] == result.per_group_counts
    checks.clear()
    assert_same_choice(_two_checks(instance, None), result)
    # the crucial vector's own check, then the walk's
    assert len(checks) >= 2


@pytest.mark.parametrize(
    "size, seed, reserved, branch",
    [
        (100, 8, 85, "fails, alpha is beta"),
        (60, 2, 90, "fails, alpha below beta"),
        (3000, 308, 98, "none"),
    ],
)
def test_a_failed_or_skipped_first_check_falls_back(
    monkeypatch, size, seed, reserved, branch
):
    instance = hard_regime_school(size, seed, reserved)
    assert _first_check(instance) == branch
    checks = _checked(monkeypatch)
    result = choice_flow(instance)
    assert not checks[0][1]
    shared = list(checks)
    checks.clear()
    assert_same_choice(result, _two_checks(instance, None))
    if branch == "fails, alpha is beta":
        # the walk moves on from the failed first check's cut without
        # checking its point again, so the call makes as many checks as the
        # two-check path's choice_flow call alone
        assert [t for t, _v in shared].count(shared[0][0]) == 1
        checks.clear()
        alpha, targets = crucial_vector(instance)
        checks.clear()
        choice_flow(instance, targets, alpha=alpha)
        assert len(shared) == len(checks)


def _roomy_market() -> MultiInstance:
    """A seeded market in which the last eight schools seat every student,
    so each of their pools fits."""
    multi = seeded_market(200, 1)
    schools = [
        replace(c, capacity=len(multi.student_ids)) if i >= 12 else c
        for i, c in enumerate(multi.schools)
    ]
    return MultiInstance(multi.columns, multi.types, schools, multi.preferences)


def test_pools_that_fit_are_taken_whole_without_a_choice():
    multi = _roomy_market()
    chosen_at = []
    choose = flow.choice_flow

    def recorded(instance, *args, **kwargs):
        chosen_at.append(instance.fixed)
        return choose(instance, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "choice_flow", recorded)
        result = run_gda(multi)
    roomy = {c.id for c in multi.schools if c.capacity >= len(multi.student_ids)}
    fits = [
        (cid, rt) for rt in result.rounds for cid in rt.pools
        if rt.pools[cid] <= multi.instances[cid].capacity
    ]
    assert {cid for cid, _rt in fits} >= roomy
    assert all(rt.rejected[cid] == () for cid, rt in fits)
    # one choice per pool that does not fit, and none for a roomy school
    assert len(chosen_at) == sum(len(rt.pools) for rt in result.rounds) - len(fits)
    assert not any(multi.instances[cid].fixed in chosen_at for cid in roomy)
    # both reference loops, which choose every pool, give the same result
    assert_replays_match_references(multi)
