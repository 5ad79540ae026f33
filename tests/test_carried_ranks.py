"""Deferred acceptance over carried priority positions.

`run_gda` keeps each school's held students as one list per group of
ascending positions of the school's priority, maps only the new proposers
to positions, and chooses from those lists (`flow.choose_pool` on a
`model.Pool`), with no Instance per pool. These tests pin its rounds to
the pool loop over id sets in `reference_search`, pin each of its choices
to `choice_flow` of the pool cut from the school by id, and pin its
rejections to that pool minus that choice. They pin `gda --probe`, which
chooses on the same kind of pool, to `choice_flow` of both its pools
rebuilt from the raw lists, and guard the work of a run: no Group objects,
one id lookup per proposal.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product

import pytest
from factories import (
    chosen_ids,
    recorded_choices,
    seeded_market,
    two_type_column_school,
)
from hypothesis import assume, given
from hypothesis import strategies as st
from reference_search import id_set_gda, rebuilt_induced_instance
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import model
from reserve_match.gda import (
    MultiInstance,
    School,
    SubstitutabilityViolation,
    run_gda,
    substitutability_probe,
)
from reserve_match.flow import choice_flow
from reserve_match.model import restrict_instance


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


def assert_probe_matches_rebuilt_pools(
    multi: MultiInstance, cid: str, base: set[str], s1: str, s2: str
) -> bool:
    """The probe gives the verdict of choice_flow on base | {s2} and on
    base | {s1, s2}, each rebuilt from the raw lists, and its two choices
    select what those do. Returns whether it found a violation."""
    school = multi.instances[cid]
    without_s1, with_s1 = (
        choice_flow(rebuilt_induced_instance(multi, cid, pool)).selected
        for pool in (base | {s2}, base | {s1, s2})
    )
    with recorded_choices() as made:
        got = substitutability_probe(school, base, s1, s2)
    assert [chosen_ids(school, *each) for each in made] == [without_s1, with_s1]
    if s2 not in without_s1 and s2 in with_s1:
        assert got == SubstitutabilityViolation(s1, s2, without_s1, with_s1)
    else:
        assert got is None
    return got is not None


def assert_drawn_probe_matches(multi: MultiInstance, data: st.DataObject) -> None:
    """The same on a drawn (school, base, s1, s2)."""
    ids = sorted(multi.student_ids)
    assume(len(ids) >= 2)
    cid = data.draw(st.sampled_from(sorted(multi.instances)))
    s1, s2 = data.draw(
        st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    )
    share = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    base = {sid for sid in ids if sid not in (s1, s2) and rng.random() < share}
    assert_probe_matches_rebuilt_pools(multi, cid, base, s1, s2)


@PROPERTY_SETTINGS
@given(markets(), st.data())
def test_probe_matches_rebuilt_pools_on_drawn_markets(multi, data):
    assert_drawn_probe_matches(multi, data)


_seeded = lru_cache(seeded_market)


@pytest.mark.parametrize("size", [200, 2000])
@PROPERTY_SETTINGS
@given(st.data())
def test_probe_matches_rebuilt_pools_on_seeded_markets(size, data):
    assert_drawn_probe_matches(_seeded(size, 1), data)


def test_probe_matches_rebuilt_pools_at_every_pair_of_a_violating_school():
    """Random draws rarely violate substitutability, so every ordered pair
    of a school where some do (see two_type_column_school) is probed, with
    everyone else as the base."""
    school = two_type_column_school(with_extra=True)
    multi = MultiInstance(
        school.columns,
        school.types,
        [School("X", school.capacity, school.priority, school.quotas)],
        {},
    )
    ids = set(school.priority)
    found = [
        (s1, s2)
        for s1, s2 in permutations(sorted(ids), 2)
        if assert_probe_matches_rebuilt_pools(multi, "X", ids - {s1, s2}, s1, s2)
    ]
    assert ("s16", "s13") in found


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
