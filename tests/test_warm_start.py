"""Deferred acceptance's choices on each school's shared type lattice.

Every pool of a school is cut from the school's instance by position and
checked on the type lattice laid out once for the school (warm). Each such
choice must equal the choice on a fresh instance of the same pool, built
from the raw student list with a lattice of its own (cold), whose type bits
cover only the pool's groups. The counts a choice ends on must be a
maximal-diversity matching's: a fresh check of them returns them as its
canonical counts unchanged. The reference network laid out over a school's
group keys must hold, for each pool, the arcs and cold optimum of a network
built for that pool alone.
"""

from __future__ import annotations

from itertools import product

import pytest
from factories import seeded_market
from flow_reference import build_network
from hypothesis import given
from reference_search import (
    assert_same_choice,
    assert_same_cold_optimum,
    rebuilt_induced_instance,
)
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import flow
from reserve_match.flow import check_validity_flow, choice_flow
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.model import ChoiceResult, Instance, restrict_instance


def _gda_choices(
    multi: MultiInstance,
) -> list[tuple[str, Instance, Instance, ChoiceResult]]:
    """(school id, school instance, pool cut, result) of every choice GDA
    makes."""
    roots = {id(instance.fixed): cid for cid, instance in multi.instances.items()}
    calls = []
    original = flow.choice_flow

    def recorded(instance, *args, **kwargs):
        result = original(instance, *args, **kwargs)
        cid = roots[id(instance.fixed)]
        calls.append((cid, multi.instances[cid], instance, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "choice_flow", recorded)
        run_gda(multi)
    return calls


def _assert_warm_matches_cold(multi: MultiInstance) -> None:
    for cid, _root, cut, warm in _gda_choices(multi):
        cold = rebuilt_induced_instance(multi, cid, cut.priority)
        assert cold.fixed is not cut.fixed
        assert_same_choice(warm, choice_flow(cold))


@pytest.mark.parametrize("size, seed", list(product([200, 600, 2000], [1, 2, 7])))
def test_warm_choices_match_cold_choices_on_seeded_markets(size, seed):
    _assert_warm_matches_cold(seeded_market(size, seed))


@PROPERTY_SETTINGS
@given(markets())
def test_warm_choices_match_cold_choices_on_drawn_markets(multi):
    _assert_warm_matches_cold(multi)


def _assert_witness_is_the_fresh_check(
    instance: Instance, result: ChoiceResult
) -> None:
    """The choice's counts fill F*, so a fresh check of them, on a fresh
    instance with a lattice of its own, has no group left to raise."""
    fresh = Instance(
        instance.columns,
        instance.capacity,
        instance.priority,
        instance.types,
        instance.quotas,
    )
    assert check_validity_flow(fresh, result.per_group_counts) == (
        result.per_group_counts
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_witness_is_the_fresh_check_of_the_counts_on_the_corpus(name):
    instance = CORPUS[name][0]()
    _assert_witness_is_the_fresh_check(instance, choice_flow(instance))


def test_witness_is_the_fresh_check_of_the_counts_on_seeded_pools():
    for _cid, _root, cut, result in _gda_choices(seeded_market(200, 1)):
        _assert_witness_is_the_fresh_check(cut, result)


def test_cold_optimum_on_seeded_pools_matches_per_cut_reference():
    for _cid, root, cut, _result in _gda_choices(seeded_market(200, 1)):
        fresh = restrict_instance(root, cut.priority)
        assert_same_cold_optimum(build_network(fresh), fresh)
