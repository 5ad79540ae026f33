"""Unit tests for the core model: instances, groups, signatures, ratios."""

from __future__ import annotations

from fractions import Fraction

import pytest
from factories import make_instance, two_group_school

from reserve_match.model import (
    A_STRICTLY_BETTER,
    B_STRICTLY_BETTER,
    EQUAL,
    GENERAL_TYPE,
    Instance,
    MalformedInstanceError,
    Seat,
    StudentRecord,
    build_groups,
    check_matching,
    group_counts,
    group_label,
    lex_compare,
    matching_signature,
    min_count_ratio,
    parse_group_label,
    restrict_instance,
    selection_flags,
    selection_ratio,
)


def test_groups_sorted_by_key_and_descending_priority():
    instance = two_group_school()
    groups = build_groups(instance)
    assert [g.key for g in groups] == [(), ("t1",)]
    assert groups[0].members == ("s4", "s3")
    assert groups[1].members == ("s2", "s1")
    assert groups[0].size == 2


def test_groups_empty_instance():
    instance = make_instance([], 0, [], ["t1"], {})
    assert build_groups(instance) == []
    assert instance.groups() == ()


def test_indexes_are_built_on_first_use():
    instance = two_group_school()
    lazy = {"_rank", "_positions", "_groups"}
    assert not lazy & vars(instance).keys()
    # group_of reads the columns; it builds no per-student index
    assert instance.group_of("s1") == ("t1",)
    assert not lazy & vars(instance).keys()
    instance.groups()
    assert {"_positions", "_groups"} <= vars(instance).keys()
    assert "_rank" not in vars(instance)


def test_group_of():
    instance = two_group_school()
    assert instance.group_of("s1") == ("t1",)
    assert instance.group_of("s2") == ("t1",)
    assert instance.group_of("s3") == ()
    with pytest.raises(KeyError):
        instance.group_of("ghost")


def test_duplicate_student_id_rejected():
    with pytest.raises(MalformedInstanceError, match="duplicate"):
        make_instance([("a", []), ("a", [])], 1, ["a", "a"], ["t1"], {})


def test_general_type_name_reserved():
    with pytest.raises(MalformedInstanceError, match="reserved"):
        make_instance([("a", [])], 1, ["a"], [GENERAL_TYPE], {})


def test_priority_must_be_permutation():
    with pytest.raises(MalformedInstanceError, match="permutation"):
        make_instance([("a", []), ("b", [])], 1, ["a"], ["t1"], {})
    with pytest.raises(MalformedInstanceError, match="permutation"):
        make_instance([("a", [])], 1, ["a", "b"], ["t1"], {})


def test_unknown_student_type_rejected():
    with pytest.raises(MalformedInstanceError, match="unknown types"):
        make_instance([("a", ["t9"])], 1, ["a"], ["t1"], {})


def test_quota_validation():
    with pytest.raises(MalformedInstanceError, match="unknown type"):
        make_instance([("a", [])], 1, ["a"], ["t1"], {("t9", 1): 1})
    with pytest.raises(MalformedInstanceError, match="ranks start at 1"):
        make_instance([("a", [])], 1, ["a"], ["t1"], {("t1", 0): 1})
    with pytest.raises(MalformedInstanceError, match="non-negative"):
        make_instance([("a", [])], 1, ["a"], ["t1"], {("t1", 1): -1})


def test_negative_capacity_rejected():
    with pytest.raises(MalformedInstanceError, match="capacity"):
        make_instance([], -1, [], ["t1"], {})


def test_max_rank_is_one_past_largest_quota_rank():
    assert two_group_school().max_rank == 2
    no_quotas = make_instance([("a", [])], 1, ["a"], ["t1"], {})
    assert no_quotas.max_rank == 1
    deep = make_instance([("a", ["t1"])], 1, ["a"], ["t1"], {("t1", 3): 2})
    assert deep.max_rank == 4


def test_group_label_round_trip():
    assert group_label(()) == "none"
    assert group_label(("t1", "t2")) == "t1+t2"
    assert parse_group_label("none") == ()
    assert parse_group_label("t2+t1") == ("t1", "t2")
    assert parse_group_label(group_label(("a", "b"))) == ("a", "b")


def test_group_counts_and_unknown_ids():
    instance = two_group_school()
    assert group_counts(instance, ["s2", "s4"]) == {(): 1, ("t1",): 1}
    assert group_counts(instance, []) == {(): 0, ("t1",): 0}
    with pytest.raises(KeyError, match="unknown"):
        group_counts(instance, ["ghost"])


def test_selection_flags_mark_each_row_once_and_name_unknown_ids():
    instance = two_group_school()
    flags = selection_flags(instance, ["s4", "s2", "s4"])
    assert [sid for sid, flag in zip(instance.columns.ids, flags) if flag] == [
        "s2",
        "s4",
    ]
    assert group_counts(instance, ["s2", "s2"]) == {(): 0, ("t1",): 1}
    with pytest.raises(KeyError) as err:
        selection_flags(instance, ["s1", "zz", "ghost", "zz"])
    assert err.value.args[0] == "unknown student ids: ['ghost', 'zz']"


def test_priority_rows_name_the_priority_order_in_instances_and_cuts():
    instance = two_group_school()
    cut = restrict_instance(instance, ["s4", "s1", "s3"])
    for each in (instance, cut):
        rows = each.priority_rows()
        assert [each.columns.ids[row] for row in rows] == list(each.priority)


def test_lex_compare_orderings():
    assert lex_compare((1, 0), (0, 5)) == A_STRICTLY_BETTER
    assert lex_compare((0, 5), (1, 0)) == B_STRICTLY_BETTER
    assert lex_compare((2, 3), (2, 3)) == EQUAL
    assert lex_compare((2, 3, 1), (2, 3, 0)) == A_STRICTLY_BETTER
    with pytest.raises(ValueError, match="length mismatch"):
        lex_compare((1,), (1, 2))


def test_matching_signature_counts_per_rank():
    instance = two_group_school()
    matching = {
        "s2": Seat("t1", 1, 1),
        "s4": Seat(GENERAL_TYPE, 2, 1),
    }
    assert matching_signature(instance, matching) == (1, 1)
    check_matching(instance, matching)


def test_check_matching_rejects_bad_assignments():
    instance = two_group_school()
    with pytest.raises(ValueError, match="lacks type"):
        check_matching(instance, {"s3": Seat("t1", 1, 1)})
    with pytest.raises(ValueError, match="assigned twice"):
        check_matching(
            instance, {"s1": Seat("t1", 1, 1), "s2": Seat("t1", 1, 1)}
        )
    with pytest.raises(ValueError, match="outside quota"):
        check_matching(instance, {"s1": Seat("t1", 1, 2)})
    with pytest.raises(ValueError, match="largest rank"):
        check_matching(instance, {"s1": Seat(GENERAL_TYPE, 1, 1)})
    big = {
        "s1": Seat("t1", 1, 1),
        "s2": Seat(GENERAL_TYPE, 2, 1),
        "s3": Seat(GENERAL_TYPE, 2, 2),
    }
    with pytest.raises(ValueError, match="exceeds capacity"):
        check_matching(instance, big)


def test_selection_ratio_bounds():
    assert selection_ratio(1, 2) == Fraction(1, 2)
    assert selection_ratio(0, 3) == 0
    with pytest.raises(ValueError):
        selection_ratio(3, 2)
    with pytest.raises(ValueError):
        selection_ratio(0, 0)


def test_min_selection_ratio():
    instance = two_group_school()
    balanced = group_counts(instance, ["s2", "s4"])
    assert min_count_ratio(instance, balanced) == Fraction(1, 2)
    starved = group_counts(instance, ["s1", "s2"])
    assert min_count_ratio(instance, starved) == 0
    empty = make_instance([], 0, [], ["t1"], {})
    assert min_count_ratio(empty, group_counts(empty, [])) == 0


def test_seat_ordering_is_total():
    seats = [Seat("t1", 2, 1), Seat("t1", 1, 2), Seat("t1", 1, 1)]
    assert sorted(seats) == [Seat("t1", 1, 1), Seat("t1", 1, 2), Seat("t1", 2, 1)]


def test_instance_accepts_student_records_directly():
    instance = Instance(
        students=[StudentRecord("a", frozenset({"t1"}))],
        capacity=1,
        priority=["a"],
        types=["t1"],
        quotas={},
    )
    assert instance.students[0].id == "a"
