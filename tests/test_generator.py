"""Unit tests for seeded instance generation."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import reference_generate_instance

from reserve_match import generator
from reserve_match.files import dump_json, instance_to_payload
from reserve_match.generator import QUOTA_STYLES, generate_instance
from reserve_match.model import StudentColumns


def test_same_seed_same_instance():
    a = generate_instance(30, 3, 2, seed=11)
    b = generate_instance(30, 3, 2, seed=11)
    assert dump_json(instance_to_payload(a)) == dump_json(instance_to_payload(b))


def test_different_seeds_differ():
    a = generate_instance(30, 3, 2, seed=11)
    b = generate_instance(30, 3, 2, seed=12)
    assert instance_to_payload(a) != instance_to_payload(b)


def test_parameter_validation():
    with pytest.raises(ValueError, match="num_students"):
        generate_instance(-1, 2, 2, seed=0)
    with pytest.raises(ValueError, match="num_types"):
        generate_instance(5, 0, 2, seed=0)
    with pytest.raises(ValueError, match="num_ranks"):
        generate_instance(5, 2, 0, seed=0)
    with pytest.raises(ValueError, match="quota style"):
        generate_instance(5, 2, 2, seed=0, quota_style="weird")
    assert set(QUOTA_STYLES) == {"uniform", "minmax"}


def test_default_capacity_is_half_the_students():
    assert generate_instance(40, 2, 2, seed=3).capacity == 20
    assert generate_instance(1, 2, 2, seed=3).capacity == 1
    assert generate_instance(0, 2, 2, seed=3).capacity == 0
    assert generate_instance(40, 2, 2, seed=3, capacity=7).capacity == 7


def test_single_rank_means_no_quotas():
    instance = generate_instance(20, 3, 1, seed=5)
    assert instance.quotas == {}
    assert instance.max_rank == 1


def test_minmax_style_guarantees_rank_one_quotas():
    instance = generate_instance(24, 3, 3, seed=9, quota_style="minmax")
    for t in sorted(instance.types):
        assert instance.quotas.get((t, 1), 0) >= 1
        assert instance.quotas.get((t, 2), 0) >= 1
    assert instance.max_rank == 3


def test_ids_are_zero_padded_and_priority_is_a_permutation():
    instance = generate_instance(120, 2, 2, seed=1)
    ids = [s.id for s in instance.students]
    assert ids[0] == "s000"
    assert len(set(instance.priority)) == 120
    assert sorted(instance.priority) == sorted(ids)


def test_zero_students():
    instance = generate_instance(0, 2, 2, seed=0)
    assert instance.students == ()
    assert instance.capacity == 0


@settings(max_examples=150, deadline=None)
@given(
    num_students=st.integers(0, 300) | st.sampled_from([0, 1]),
    num_types=st.integers(1, 12),
    num_ranks=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    quota_style=st.sampled_from(QUOTA_STYLES),
    capacity=st.none() | st.integers(0, 400),
)
def test_columns_match_the_record_generator(
    num_students, num_types, num_ranks, seed, quota_style, capacity
):
    args = (num_students, num_types, num_ranks, seed, quota_style, capacity)
    fast = generate_instance(*args)
    slow = reference_generate_instance(*args)
    assert fast.columns.ids == slow.columns.ids
    assert list(fast.columns.group_index) == list(slow.columns.group_index)
    assert fast.columns.group_keys == slow.columns.group_keys
    assert fast.priority == slow.priority
    assert fast.capacity == slow.capacity
    assert fast.types == slow.types
    assert fast.quotas == slow.quotas
    assert fast.students == slow.students


def test_generation_leaves_the_records_view_unbuilt():
    instance = generate_instance(200, 3, 2, seed=4)
    assert "records" not in vars(instance.columns)
    assert len(instance.students) == 200
    assert "records" in vars(instance.columns)


def test_draws_stream_one_student_at_a_time(monkeypatch):
    """Every student's types reach the interning before the next student
    draws, so the draws are never collected into a students x types list."""
    num_students, num_types = 300, 40
    drawn = 0

    class CountingRandom(random.Random):
        def random(self):
            nonlocal drawn
            drawn += 1
            return super().random()

        # keeps shuffle and randint on getrandbits, as in random.Random
        def getrandbits(self, k):
            return super().getrandbits(k)

    in_step = []
    intern = StudentColumns.intern.__func__

    def watched(cls, ids, types):
        def each():
            for students, names in enumerate(types, 1):
                in_step.append(drawn == students * num_types)
                yield names

        return intern(cls, ids, each())

    monkeypatch.setattr(generator, "random", SimpleNamespace(Random=CountingRandom))
    monkeypatch.setattr(StudentColumns, "intern", classmethod(watched))
    instance = generate_instance(num_students, num_types, 2, seed=5)
    assert in_step == [True] * num_students
    assert drawn == num_students * num_types
    monkeypatch.undo()
    expected = reference_generate_instance(num_students, num_types, 2, seed=5)
    assert instance.students == expected.students
