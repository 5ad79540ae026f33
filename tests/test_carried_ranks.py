"""Deferred acceptance over carried priority positions.

`run_gda` keeps each school's held students as one list per group of
ascending positions of the school's priority, maps only the new proposers
to positions, and chooses from those lists (`flow.choose_pool` on a
`model.Pool`), with no Instance per pool. These tests pin its rounds to
the pool loop over id sets in `reference_search`, pin each of its choices
to `choice_flow` of the pool cut from the school by id, and pin its
rejections to that pool minus that choice. They pin the rank cut that the
probe uses (`model.restrict_to_ranks`) to the id cut and to a pool rebuilt
from the raw lists, and guard the work of a run: no Group objects, one id
lookup per proposal.
"""

from __future__ import annotations

from itertools import product

import pytest
from factories import recorded_choices, seeded_market
from hypothesis import given
from hypothesis import strategies as st
from reference_search import id_set_gda, rebuilt_induced_instance
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import model
from reserve_match.gda import MultiInstance, run_gda
from reserve_match.flow import choice_flow
from reserve_match.model import restrict_instance, restrict_to_ranks


def assert_same_rounds(multi: MultiInstance) -> None:
    got = run_gda(multi)
    want = id_set_gda(multi)
    assert got.assignment == want.assignment
    assert got.per_school == want.per_school
    assert len(got.rounds) == len(want.rounds)
    for mine, theirs in zip(got.rounds, want.rounds):
        assert mine == theirs


@pytest.mark.parametrize("size, seed", list(product([200, 600], [1, 2])))
def test_carried_ranks_match_id_set_pools_on_seeded_markets(size, seed):
    assert_same_rounds(seeded_market(size, seed))


@PROPERTY_SETTINGS
@given(markets())
def test_carried_ranks_match_id_set_pools_on_drawn_markets(multi):
    assert_same_rounds(multi)


def assert_choices_match_instance_choices(multi: MultiInstance) -> None:
    """Each choice of a run has the per-group counts of choice_flow on its
    pool cut from the school by id, and the round's rejections at that
    school are the pool minus that choice's selection, in priority order.
    A pool that fits its school makes no choice and rejects no one."""
    with recorded_choices() as made:
        result = run_gda(multi)
    choices = iter(made)
    for rt in result.rounds:
        for cid, size in rt.pools.items():
            school = multi.instances[cid]
            if size <= school.capacity:
                assert rt.rejected[cid] == ()
                continue
            pool, choice = next(choices)
            assert pool.fixed is school.fixed
            ids = {school.priority[p] for members in pool.member_positions()
                   for p in members}
            assert len(ids) == size
            want = choice_flow(restrict_instance(school, ids))
            assert choice.counts == want.per_group_counts
            assert rt.rejected[cid] == tuple(
                sid for sid in school.priority
                if sid in ids and sid not in want.selected
            )
    assert next(choices, None) is None


@pytest.mark.parametrize("size, seed", list(product([200, 2000], [1, 2, 7])))
def test_each_choice_matches_the_instance_choice_on_seeded_markets(size, seed):
    assert_choices_match_instance_choices(seeded_market(size, seed))


@PROPERTY_SETTINGS
@given(markets())
def test_each_choice_matches_the_instance_choice_on_drawn_markets(multi):
    assert_choices_match_instance_choices(multi)


@PROPERTY_SETTINGS
@given(markets(), st.data())
def test_rank_cut_matches_id_cut(multi, data):
    ids = sorted(multi.student_ids)
    for cid, instance in multi.instances.items():
        pool = data.draw(st.sets(st.sampled_from(ids)))
        ranks = [p for p, sid in enumerate(instance.priority) if sid in pool]
        by_rank = restrict_to_ranks(instance, ranks)
        by_id = restrict_instance(instance, pool)
        for cut in (by_id, rebuilt_induced_instance(multi, cid, pool)):
            assert by_rank.priority == cut.priority
            assert by_rank.group_keys() == cut.group_keys()
            assert by_rank.member_positions() == cut.member_positions()


class _CountedIndex(dict):
    """An id index that counts the ids looked up in it."""

    lookups = 0

    def __getitem__(self, sid):
        self.lookups += 1
        return super().__getitem__(sid)


def test_gda_builds_no_groups_and_maps_only_proposers(monkeypatch):
    multi = seeded_market(600, 2)

    def built(instance):
        raise AssertionError("a choice built Group objects")

    monkeypatch.setattr(model, "build_groups", built)
    index = vars(multi.columns)["index"] = _CountedIndex(multi.columns.index)
    result = run_gda(multi)
    proposals = sum(
        len(ids) for rt in result.rounds for ids in rt.proposals.values()
    )
    pooled = sum(sum(rt.pools.values()) for rt in result.rounds)
    # held students carry their positions from round to round
    assert index.lookups == proposals
    assert proposals < pooled
