"""Deferred acceptance over carried priority positions.

`run_gda` keeps each school's held students as ascending positions of the
school's priority, maps only the new proposers to positions, and cuts each
pool from those positions (`model.restrict_to_ranks`). These tests pin its
rounds to the pool loop over id sets in `reference_search`, pin the rank
cut to the id cut and to a pool rebuilt from the raw lists, and guard the
work of a run: no Group objects, one id lookup per proposal.
"""

from __future__ import annotations

from itertools import product

import pytest
from factories import seeded_market
from hypothesis import given
from hypothesis import strategies as st
from reference_search import id_set_gda, rebuilt_induced_instance
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import model
from reserve_match.gda import MultiInstance, run_gda
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
