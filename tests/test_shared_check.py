"""A choice that computes its own crucial vector against one that is given it.

choice_flow(instance) runs the alpha search and then walks from alpha's
targets, which that search found valid; choice_flow(instance, targets,
alpha=alpha) checks the given targets first. These tests check that both
give the same choice, field by field, on drawn instances, the golden
corpus and every pool deferred acceptance chooses from. They check that no
call checks again counts that it already found valid, and that deferred
acceptance takes a pool that fits its school's seats whole, without a
choice.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import pytest
from factories import pool_cut, recorded_choices, seeded_market
from hypothesis import given
from reference_search import assert_same_choice
from test_gda import assert_replays_match_references
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances

from reserve_match import flow
from reserve_match.flow import choice_flow, crucial_vector
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.model import ChoiceResult, Instance


def _two_checks(instance: Instance) -> ChoiceResult:
    """The choice with its crucial vector passed in, so that the targets
    are checked on their own before the walk starts."""
    alpha, targets = crucial_vector(instance)
    return choice_flow(instance, targets, alpha=alpha)


def _assert_same_as_two_checks(instance: Instance) -> None:
    assert_same_choice(choice_flow(instance), _two_checks(instance))


def _checked(monkeypatch: Any) -> list[tuple[dict, bool]]:
    """Record (targets, verdict) of every validity check from now on."""
    checks: list[tuple[dict, bool]] = []
    check = flow._TypeLattice.check

    def recorded(self, targets):
        verdict = check(self, targets)
        checks.append((dict(targets), verdict))
        return verdict

    monkeypatch.setattr(flow._TypeLattice, "check", recorded)
    return checks


@PROPERTY_SETTINGS
@given(instances())
def test_shared_first_check_matches_two_checks_on_drawn_instances(instance):
    _assert_same_as_two_checks(instance)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_shared_first_check_matches_two_checks_on_the_corpus(name):
    _assert_same_as_two_checks(CORPUS[name][0]())


def _market_pools(size: int, seed: int) -> list[Instance]:
    """The pool of every choice deferred acceptance makes on a seeded
    market, cut from its school's instance."""
    multi = seeded_market(size, seed)
    with recorded_choices() as made:
        run_gda(multi)
    assert len(made) > 200
    return [pool_cut(pool) for pool, _choice in made]


@pytest.mark.parametrize("size, seed", [(600, 2), (2000, 7)])
def test_shared_first_check_matches_two_checks_on_market_pools(size, seed):
    for cut in _market_pools(size, seed):
        _assert_same_as_two_checks(cut)


def _assert_no_valid_counts_repeated(checks: list[tuple[dict, bool]]) -> None:
    """No check repeats counts that an earlier one found valid."""
    valid: list[dict] = []
    for targets, verdict in checks:
        assert targets not in valid
        if verdict:
            valid.append(targets)


def _assert_no_valid_counts_checked_again(instance: Instance) -> None:
    with pytest.MonkeyPatch.context() as patch:
        checks = _checked(patch)
        choice_flow(instance)
    _assert_no_valid_counts_repeated(checks)


@PROPERTY_SETTINGS
@given(instances())
def test_no_valid_counts_are_checked_again_on_drawn_instances(instance):
    _assert_no_valid_counts_checked_again(instance)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_valid_counts_are_checked_again_on_the_corpus(name):
    _assert_no_valid_counts_checked_again(CORPUS[name][0]())


def test_no_valid_counts_are_checked_again_on_market_pools():
    for cut in _market_pools(600, 2):
        _assert_no_valid_counts_checked_again(cut)


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
    with recorded_choices() as made:
        result = run_gda(multi)
    chosen_at = [pool.instance for pool, _choice in made]
    roomy = {c.id for c in multi.schools if c.capacity >= len(multi.student_ids)}
    fits = [
        (cid, rt) for rt in result.rounds for cid in rt.pools
        if rt.pools[cid] <= multi.instances[cid].capacity
    ]
    assert {cid for cid, _rt in fits} >= roomy
    assert all(rt.rejected[cid] == () for cid, rt in fits)
    # one choice per pool that does not fit, and none for a roomy school
    assert len(chosen_at) == sum(len(rt.pools) for rt in result.rounds) - len(fits)
    assert not any(multi.instances[cid] in chosen_at for cid in roomy)
    # both reference loops, which choose every pool, give the same result
    assert_replays_match_references(multi)
