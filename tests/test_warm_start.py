"""Deferred acceptance's choices on each school's shared type lattice.

Every pool of a school is a model.Pool, checked on the type lattice laid
out once for the school (warm). Each such choice must equal the choice on
a fresh instance of the same pool, built from the raw student list with a
lattice of its own (cold), whose type bits cover only the pool's groups.
The counts a choice ends on must be a maximal-diversity matching's: a
fresh check of them returns them as its canonical counts unchanged. The
reference network laid out over a school's group keys must hold, for each
pool, the arcs and cold optimum of a network built for that pool alone.
"""

from __future__ import annotations

from itertools import product

import pytest
from factories import chosen_ids, pool_cut, recorded_choices, seeded_market
from flow_reference import build_network
from hypothesis import given
from reference_search import (
    assert_same_choice,
    assert_same_cold_optimum,
    rebuilt_induced_instance,
)
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match.flow import check_validity_flow, choice_flow
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.model import ChoiceResult, Instance, Pool


def _gda_choices(
    multi: MultiInstance,
) -> list[tuple[str, Pool, Instance, ChoiceResult]]:
    """(school id, pool, pool cut from the school, result) of every choice
    GDA makes, the result's ids read off the school's priority."""
    roots = {id(instance): cid for cid, instance in multi.instances.items()}
    with recorded_choices() as made:
        run_gda(multi)
    calls = []
    for pool, choice in made:
        cid = roots[id(pool.instance)]
        result = ChoiceResult(
            chosen_ids(multi.instances[cid], pool, choice),
            choice.counts,
            choice.signature,
            choice.alpha,
            choice.targets,
        )
        calls.append((cid, pool, pool_cut(pool), result))
    return calls


def _assert_warm_matches_cold(multi: MultiInstance) -> int:
    """Check every choice of a run; returns how many there were."""
    choices = _gda_choices(multi)
    for cid, pool, cut, warm in choices:
        cold = rebuilt_induced_instance(multi, cid, cut.priority)
        assert pool.instance is multi.instances[cid]
        assert cold is not pool.instance
        assert_same_choice(warm, choice_flow(cold))
    return len(choices)


@pytest.mark.parametrize("size, seed", list(product([200, 600, 2000], [1, 2, 7])))
def test_warm_choices_match_cold_choices_on_seeded_markets(size, seed):
    assert _assert_warm_matches_cold(seeded_market(size, seed)) > 0


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
    choices = _gda_choices(seeded_market(200, 1))
    assert choices
    for _cid, _pool, cut, result in choices:
        _assert_witness_is_the_fresh_check(cut, result)


def test_cold_optimum_on_seeded_pools_matches_per_cut_reference():
    choices = _gda_choices(seeded_market(200, 1))
    assert choices
    for _cid, pool, cut, _result in choices:
        assert_same_cold_optimum(build_network(pool), cut)
