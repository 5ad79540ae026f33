"""Unit tests for multi-school deferred acceptance and the probe."""

from __future__ import annotations

import json
from itertools import product

import pytest
from factories import seeded_market, two_type_column_school
from hypothesis import given
from reference_search import RoundSets, id_set_gda, replay_rounds, rescanning_gda
from test_properties import PROPERTY_SETTINGS, markets

from reserve_match import cli, files, flow
from reserve_match.files import dump_json, instance_to_payload
from reserve_match.gda import (
    MultiInstance,
    School,
    induced_instance,
    restrict_instance,
    run_gda,
    substitutability_probe,
)
from reserve_match.model import Instance, MalformedInstanceError, Pool, StudentRecord


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
    replayed = replay_rounds(result.rounds)
    assert first.proposals == {"X": ("a", "b", "c"), "Y": ("d", "e")}
    assert first.pools == {"X": 3, "Y": 2}
    assert replayed[0].pools == {"X": {"a", "b", "c"}, "Y": {"d", "e"}}
    assert replayed[0].held == {"X": {"a"}, "Y": {"d", "e"}}
    assert first.rejected == {"X": ("b", "c"), "Y": ()}

    # c falls back to Y and bumps e off the held list
    assert second.proposals == {"Y": ("c",)}
    assert second.pools == {"Y": 3}
    assert replayed[1].pools == {"Y": {"d", "e", "c"}}
    assert replayed[1].held == {"X": {"a"}, "Y": {"c", "d"}}
    assert second.rejected == {"Y": ("e",)}

    # e falls back to X and is refused; b's list is already exhausted
    assert third.proposals == {"X": ("e",)}
    assert third.pools == {"X": 2}
    assert replayed[2].pools == {"X": {"a", "e"}}
    assert replayed[2].held == {"X": {"a"}, "Y": {"c", "d"}}
    assert third.rejected == {"X": ("e",)}
    assert replayed[2].held == result.per_school


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


def assert_replays_match_references(multi: MultiInstance) -> None:
    """Both reference loops give run_gda's result, the trace's replay gives
    each reference's pools and held sets, each replayed pool has the size
    the trace records, and the last held sets are per_school."""
    result = run_gda(multi)
    replayed = replay_rounds(result.rounds)
    for reference in (rescanning_gda, id_set_gda):
        sets: list[RoundSets] = []
        assert reference(multi, sets) == result
        assert len(replayed) == len(sets) == len(result.rounds)
        for rt, mine, theirs in zip(result.rounds, replayed, sets):
            assert mine.pools == theirs.pools
            assert {cid: len(pool) for cid, pool in mine.pools.items()} == rt.pools
            # a school that has not chosen yet holds nobody
            assert mine.held == {
                cid: held for cid, held in theirs.held.items() if cid in mine.held
            }
            assert not any(
                held for cid, held in theirs.held.items() if cid not in mine.held
            )
    final = replayed[-1].held if replayed else {}
    assert {cid: final.get(cid, frozenset()) for cid in result.per_school} == (
        result.per_school
    )


@pytest.mark.parametrize("size, seed", list(product([200, 600, 2000], [1, 2, 7])))
def test_replayed_rounds_match_the_reference_sets(size, seed):
    assert_replays_match_references(seeded_market(size, seed))


@PROPERTY_SETTINGS
@given(markets())
def test_replayed_rounds_match_the_reference_sets_on_drawn_markets(multi):
    assert_replays_match_references(multi)


def test_gda_and_probe_validate_nothing_and_build_no_positions(monkeypatch):
    multi = two_school_market()

    def revalidated(self):
        raise AssertionError("gda or the probe validated an instance")

    monkeypatch.setattr(Instance, "_validate", revalidated)
    run_gda(multi)
    substitutability_probe(multi.instances["Y"], {"a", "b", "d"}, "c", "e")
    for instance in multi.instances.values():
        assert "_positions" not in vars(instance)


def test_gda_pools_never_take_their_columns(monkeypatch):
    multi = seeded_market(200, seed=1)
    pools = []
    choose = flow.choose_pool

    def recorded(pool, *args, **kwargs):
        # the run cuts its lists after the choice, so they are copied here
        pools.append((pool, [list(p) for p in pool.member_positions()]))
        return choose(pool, *args, **kwargs)

    monkeypatch.setattr(flow, "choose_pool", recorded)
    run_gda(multi)
    assert len(pools) > len(multi.schools)
    # a choice reads a pool's group keys and positions, never columns or a
    # priority: a pool has neither
    assert all(type(pool) is Pool for pool, _positions in pools)
    assert not any(
        hasattr(pool, "columns") or hasattr(pool, "priority")
        for pool, _positions in pools
    )
    # each group lists its members as ascending positions of the school's
    # priority, the groups in key order
    for pool, positions in pools:
        root = pool.instance
        keys = list(pool.group_keys())
        assert keys == sorted(set(keys))
        for key, members in zip(keys, positions, strict=True):
            assert members and members == sorted(set(members))
            assert all(root.group_of(root.priority[p]) == key for p in members)


class _WatchedPriority(tuple):
    """A priority tuple that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_run_gda_builds_each_seat_layout_once_and_never_walks_a_priority(
    monkeypatch,
):
    built = []
    choices = []
    original = flow._LatticeLayout.__init__
    choose = flow.choose_pool

    def counted(self, instance, types):
        built.append(instance)
        original(self, instance, types)

    def recorded(pool, *args, **kwargs):
        choices.append(pool)
        return choose(pool, *args, **kwargs)

    monkeypatch.setattr(flow, "choose_pool", recorded)
    monkeypatch.setattr(flow._LatticeLayout, "__init__", counted)
    # in the second market one school's pools all fit its seats
    for seed in (1, 9):
        multi = seeded_market(200, seed)
        for instance in multi.instances.values():
            instance.priority = _WatchedPriority(instance.priority)
        for log in (built, choices):
            log.clear()
        result = run_gda(multi)
        pools = {
            cid: sum(cid in rt.pools for rt in result.rounds)
            for cid in multi.instances
        }
        assert max(pools.values()) > 2
        chose = {
            cid: sum(cut.instance is instance for cut in choices)
            for cid, instance in multi.instances.items()
        }
        # a pool that fits is taken whole, with no choice
        assert chose == {
            cid: sum(
                rt.pools.get(cid, 0) > multi.instances[cid].capacity
                for rt in result.rounds
            )
            for cid in multi.instances
        }
        assert any(pools[cid] and not chose[cid] for cid in pools) == (seed == 9)
        for cid, instance in multi.instances.items():
            # the rank array that orders every pool of the school is built
            # from the rows kept by validation, not from a walk of the
            # priority list
            assert instance.priority.walks == 0
            # one type lattice per school, which every pool's checks read
            assert sum(laid is instance for laid in built) == (
                1 if chose[cid] else 0
            )
            if chose[cid]:
                assert instance.lattice is not None
        assert len(built) == sum(1 for n in chose.values() if n)


def _market_file(tmp_path, multi: MultiInstance) -> str:
    """The market as a multi-school file, plus a school that no one ranks."""
    students = instance_to_payload(next(iter(multi.instances.values())))["students"]
    unranked = School("zz", 1, multi.schools[0].priority, {})
    payload = {
        "types": sorted(multi.types),
        "students": students,
        "schools": [
            {
                "id": c.id,
                "capacity": c.capacity,
                "quotas": [
                    {"type": t, "rank": rank, "quota": count}
                    for (t, rank), count in sorted(c.quotas.items())
                ],
                "priority": list(c.priority),
            }
            for c in multi.schools + (unranked,)
        ],
        "preferences": {sid: list(p) for sid, p in multi.preferences.items()},
    }
    path = tmp_path / "market.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    return str(path)


def test_engine_columns_are_built_on_first_use(tmp_path, monkeypatch, capsys):
    path = _market_file(tmp_path, seeded_market(200, seed=1))
    engine = {"_rank"}

    def built(multi, columns=engine):
        return {
            cid for cid, instance in multi.instances.items()
            if columns <= vars(instance).keys()
        }

    def untouched(multi):
        return {
            cid for cid, instance in multi.instances.items()
            if not engine & vars(instance).keys()
        }

    multi = files.load_multi(path)
    assert untouched(multi) == set(multi.instances)
    # the probe loads its own copy: it builds the columns of its school only
    loaded = []
    load = files.load_multi

    def recorded(p):
        loaded.append(load(p))
        return loaded[-1]

    monkeypatch.setattr(files, "load_multi", recorded)
    s1, s2 = multi.columns.ids[:2]
    assert cli.main(["gda", path, "--probe", f"c03:{s1}:{s2}"]) in (0, 1)
    capsys.readouterr()
    (probed,) = loaded
    assert built(probed) == {"c03"}
    assert untouched(probed) == set(probed.instances) - {"c03"}
    result = run_gda(multi)
    pooled = {cid for rt in result.rounds for cid in rt.pools}
    assert "zz" not in pooled
    # a run maps its proposers through the rank array and the shared
    # group-index column, so it never buckets a school's priority by group
    assert built(multi, {"_rank"}) == pooled
    assert built(multi, {"_positions"}) == set()
    assert untouched(multi) == set(multi.instances) - pooled
