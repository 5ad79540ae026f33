"""Unit tests for multi-school deferred acceptance and the probe."""

from __future__ import annotations

import json

import pytest
from factories import seeded_market, two_type_column_school
from reference_search import rescanning_gda

from reserve_match import cli, flow
from reserve_match.gda import (
    MultiInstance,
    School,
    induced_instance,
    restrict_instance,
    run_gda,
    substitutability_probe,
)
from reserve_match.model import Instance, MalformedInstanceError, StudentRecord


def _students():
    return [
        StudentRecord("a", frozenset({"t1"})),
        StudentRecord("b", frozenset()),
        StudentRecord("c", frozenset({"t1"})),
        StudentRecord("d", frozenset()),
        StudentRecord("e", frozenset()),
    ]


def two_school_market() -> MultiInstance:
    """One seat at X, two at Y with a reserved t1 seat; contested pools."""
    return MultiInstance(
        students=_students(),
        types=["t1"],
        schools=[
            School("X", 1, ("a", "b", "c", "d", "e"), {}),
            School("Y", 2, ("d", "e", "c", "b", "a"), {("t1", 1): 1}),
        ],
        preferences={
            "a": ["X", "Y"],
            "b": ["X"],
            "c": ["X", "Y"],
            "d": ["Y"],
            "e": ["Y", "X"],
        },
    )


def test_multi_instance_validation():
    students = _students()
    with pytest.raises(MalformedInstanceError, match="duplicate school"):
        MultiInstance(
            students, ["t1"], [School("X", 1, tuple("abcde"), {})] * 2, {}
        )
    with pytest.raises(MalformedInstanceError, match="duplicate student"):
        MultiInstance(
            students + [StudentRecord("a", frozenset())],
            ["t1"],
            [],
            {},
        )
    with pytest.raises(MalformedInstanceError, match="unknown student"):
        MultiInstance(students, ["t1"], [], {"ghost": []})
    with pytest.raises(MalformedInstanceError, match="repeats a school"):
        MultiInstance(
            students,
            ["t1"],
            [School("X", 1, tuple("abcde"), {})],
            {"a": ["X", "X"]},
        )
    with pytest.raises(MalformedInstanceError, match="unknown schools"):
        MultiInstance(students, ["t1"], [], {"a": ["X"]})
    # a school's priority must cover every student
    with pytest.raises(MalformedInstanceError, match="permutation"):
        MultiInstance(students, ["t1"], [School("X", 1, ("a",), {})], {})
    # school quotas must stay inside the shared type universe
    with pytest.raises(MalformedInstanceError, match="unknown type"):
        MultiInstance(
            students,
            ["t1"],
            [School("X", 1, tuple("abcde"), {("t9", 1): 1})],
            {},
        )


def test_school_errors_name_the_school(tmp_path, capsys):
    schools = [
        School("c00", 1, tuple("abcde"), {}),
        School("c07", 1, ("a", "b"), {}),
    ]
    with pytest.raises(
        MalformedInstanceError,
        match=r"^school 'c07': priority must be a permutation of all student ids$",
    ):
        MultiInstance(_students(), ["t1"], schools, {})
    too_deep = [{"type": "t1", "rank": 100, "quota": 1}]
    payload = {
        "types": ["t1"],
        "students": [{"id": s.id, "types": sorted(s.type_set)} for s in _students()],
        "schools": [
            {"id": "c00", "capacity": 1, "quotas": [], "priority": list("abcde")},
            {"id": "c03", "capacity": 1, "quotas": too_deep, "priority": list("edcba")},
        ],
        "preferences": {},
    }
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["gda", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: school 'c03': quota ranks must be below 100\n"
    )


def test_school_and_preference_lookups():
    multi = two_school_market()
    assert [c.id for c in multi.schools] == ["X", "Y"]
    assert multi.instances["Y"].capacity == 2
    assert multi.instances["Y"].priority == multi.schools[1].priority
    assert "Z" not in multi.instances
    assert multi.preference_list("b") == ("X",)
    assert multi.preference_list("nobody") == ()


def test_restrict_instance():
    instance = two_type_column_school()
    small = restrict_instance(instance, ["s12", "s21"])
    assert [s.id for s in small.students] == ["s12", "s21"]
    assert small.priority == ("s12", "s21")
    assert small.capacity == instance.capacity
    with pytest.raises(KeyError, match="unknown"):
        restrict_instance(instance, ["ghost"])


def test_induced_instance():
    multi = two_school_market()
    sub = induced_instance(multi, "Y", ["e", "c"])
    assert sub.capacity == 2
    assert sub.priority == ("e", "c")
    assert sub.quotas == {("t1", 1): 1}
    with pytest.raises(KeyError, match="unknown"):
        induced_instance(multi, "Y", ["ghost"])
    # the same instance as one built directly from the pool
    direct = Instance(
        [s for s in _students() if s.id in {"c", "e"}],
        2,
        ("e", "c"),
        ["t1"],
        {("t1", 1): 1},
    )
    assert sub.students == direct.students
    assert sub.priority == direct.priority
    assert sub.groups() == direct.groups()


def test_run_gda_two_school_market():
    result = run_gda(two_school_market())
    assert result.assignment == {
        "a": "X",
        "b": None,
        "c": "Y",
        "d": "Y",
        "e": None,
    }
    assert result.per_school == {
        "X": frozenset({"a"}),
        "Y": frozenset({"c", "d"}),
    }

    assert [rt.number for rt in result.rounds] == [1, 2, 3]
    first, second, third = result.rounds
    assert first.proposals == {"X": ("a", "b", "c"), "Y": ("d", "e")}
    assert first.pools == {"X": ("a", "b", "c"), "Y": ("d", "e")}
    assert first.selected == {"X": ("a",), "Y": ("d", "e")}
    assert first.rejected == {"X": ("b", "c"), "Y": ()}

    # c falls back to Y and bumps e off the held list
    assert second.proposals == {"Y": ("c",)}
    assert second.pools == {"Y": ("d", "e", "c")}
    assert second.selected == {"X": ("a",), "Y": ("c", "d")}
    assert second.rejected == {"Y": ("e",)}

    # e falls back to X and is refused; b's list is already exhausted
    assert third.proposals == {"X": ("e",)}
    assert third.pools == {"X": ("a", "e")}
    assert third.selected == {"X": ("a",), "Y": ("c", "d")}
    assert third.rejected == {"X": ("e",)}


def test_run_gda_without_preferences_matches_nobody():
    multi = MultiInstance(
        students=_students(),
        types=["t1"],
        schools=[School("X", 2, ("a", "b", "c", "d", "e"), {})],
        preferences={},
    )
    result = run_gda(multi)
    assert result.rounds == ()
    assert all(cid is None for cid in result.assignment.values())


def test_substitutability_probe_reports_violation():
    instance = two_type_column_school(with_extra=True)
    everyone = {s.id for s in instance.students}
    base = everyone - {"s13", "s16"}
    violation = substitutability_probe(instance, base, "s16", "s13")
    assert violation is not None
    assert violation.without_s1 == frozenset({"s11", "s12", "s21", "s22"})
    assert violation.with_s1 == frozenset({"s11", "s12", "s13", "s21"})


def test_substitutability_probe_clean_direction():
    instance = two_type_column_school(with_extra=True)
    everyone = {s.id for s in instance.students}
    base = everyone - {"s13", "s16"}
    assert substitutability_probe(instance, base, "s13", "s16") is None


def test_substitutability_probe_argument_validation():
    instance = two_type_column_school(with_extra=True)
    everyone = {s.id for s in instance.students}
    with pytest.raises(ValueError, match="outside the base"):
        substitutability_probe(instance, everyone, "s16", "s13")
    with pytest.raises(ValueError, match="distinct"):
        substitutability_probe(instance, everyone - {"s13"}, "s13", "s13")


@pytest.mark.parametrize("num_students", [200, 2000])
def test_run_gda_matches_rescanning_reference(num_students):
    multi = seeded_market(num_students, seed=1)
    result = run_gda(multi)
    assert len(result.rounds) > 2
    assert result == rescanning_gda(multi)


def test_kept_instances_are_restricted_without_indexes(monkeypatch):
    multi = two_school_market()

    def revalidated(self):
        raise AssertionError("a restricted instance was validated again")

    monkeypatch.setattr(Instance, "_validate", revalidated)
    run_gda(multi)
    substitutability_probe(multi.instances["Y"], {"a", "b", "d"}, "c", "e")
    for instance in multi.instances.values():
        assert "_positions" not in vars(instance)


class _WatchedPriority(tuple):
    """A priority tuple that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_run_gda_builds_each_seat_layout_once_and_never_walks_a_priority(
    monkeypatch,
):
    multi = seeded_market(200, seed=1)
    for instance in multi.instances.values():
        instance.priority = _WatchedPriority(instance.priority)
    built = []
    original = flow._SeatLayout.__init__

    def counted(self, instance):
        built.append(instance.fixed)
        original(self, instance)

    monkeypatch.setattr(flow._SeatLayout, "__init__", counted)
    result = run_gda(multi)
    pools = {
        cid: sum(cid in rt.pools for rt in result.rounds) for cid in multi.instances
    }
    assert max(pools.values()) > 2
    for cid, instance in multi.instances.items():
        # the rank array that orders every pool of the school is built from
        # the rows kept by validation, not from a walk of the priority list
        assert instance.priority.walks == 0
        assert sum(fixed is instance.fixed for fixed in built) == (
            1 if pools[cid] else 0
        )
    assert len(built) == sum(1 for n in pools.values() if n)
