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


def test_kept_instances_are_restricted_without_indexes(monkeypatch):
    multi = two_school_market()

    def revalidated(self):
        raise AssertionError("a restricted instance was validated again")

    monkeypatch.setattr(Instance, "_validate", revalidated)
    run_gda(multi)
    substitutability_probe(multi.instances["Y"], {"a", "b", "d"}, "c", "e")
    for instance in multi.instances.values():
        assert "_positions" not in vars(instance)


def test_gda_pools_never_take_their_columns(monkeypatch):
    multi = seeded_market(200, seed=1)
    pools = []
    choose = flow.choice_flow

    def recorded(instance, *args, **kwargs):
        pools.append(instance)
        return choose(instance, *args, **kwargs)

    monkeypatch.setattr(flow, "choice_flow", recorded)
    run_gda(multi)
    assert len(pools) > len(multi.schools)
    # a choice reads a cut's priority and group positions, never its columns
    assert not any("columns" in vars(pool) for pool in pools)
    # taken on first use, they list the pool in file order
    cut = pools[-1]
    root = next(i for i in multi.instances.values() if i.fixed is cut.fixed)
    kept = set(cut.priority)
    assert cut.columns.ids == tuple(sid for sid in root.columns.ids if sid in kept)
    assert all(cut.group_of(sid) == root.group_of(sid) for sid in kept)
    assert cut.columns.group_keys == tuple(g.key for g in cut.groups())


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
    residuals = []
    solved_on = []
    choices = []
    original = flow._StandingNetwork.__init__
    original_residual = flow._Residual.__init__
    original_solver = flow._MinCostFlow.__init__
    choose = flow.choice_flow

    def counted(self, instance):
        built.append(instance.fixed)
        original(self, instance)

    def counted_residual(self, *args):
        residuals.append(self)
        original_residual(self, *args)

    def watched_solver(self, residual, *args):
        solved_on.append(residual)
        original_solver(self, residual, *args)

    def recorded(instance, *args, **kwargs):
        choices.append((instance, kwargs.get("start")))
        return choose(instance, *args, **kwargs)

    monkeypatch.setattr(flow, "choice_flow", recorded)
    monkeypatch.setattr(flow._StandingNetwork, "__init__", counted)
    monkeypatch.setattr(flow._Residual, "__init__", counted_residual)
    monkeypatch.setattr(flow._MinCostFlow, "__init__", watched_solver)
    # in the second market one school's pools all fit its seats
    for seed in (1, 9):
        multi = seeded_market(200, seed)
        for instance in multi.instances.values():
            instance.priority = _WatchedPriority(instance.priority)
        for log in (built, residuals, solved_on, choices):
            log.clear()
        result = run_gda(multi)
        pools = {
            cid: sum(cid in rt.pools for rt in result.rounds)
            for cid in multi.instances
        }
        assert max(pools.values()) > 2
        chose = {
            cid: sum(cut.fixed is instance.fixed for cut, _start in choices)
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
            assert sum(fixed is instance.fixed for fixed in built) == (
                1 if chose[cid] else 0
            )
        assert len(built) == sum(1 for n in chose.values() if n)
        # one network and one set of solver arrays per school, which every
        # solve of the school's pools reads
        schools = [fixed.network.residual for fixed in built]
        assert residuals == schools
        assert all(any(r is mine for mine in schools) for r in solved_on)
        # a certified start already carries a full pool's min(|S|, q)
        # units, so only cold and uncertified starts build a solver
        fresh = [
            start is None or not flow._certified(flow.build_network(cut), start)
            for cut, start in choices
        ]
        assert len(solved_on) == sum(fresh) < len(choices)


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
    engine = {"_ranked", "_rank"}

    def built(multi):
        return {
            cid for cid, instance in multi.instances.items()
            if engine <= vars(instance).keys()
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
    assert built(multi) == pooled
    assert untouched(multi) == set(multi.instances) - pooled
