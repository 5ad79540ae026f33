"""Pinned work counts of the choice path and of the file loaders.

Lattice checks on a fixed set of inputs: the golden corpus's hard-regime
school, three hard-regime schools whose walk has a check that fails,
`generate_instance(20000, k, 2, 7)` for k = 6, 8, 10 and 12 (with `verify`
for k = 6 and 8), a school of many types in few groups, and the
benchmark's solve-hard and gda-market inputs at seed 1 (with the
market's pools and choices, and its probe). A choice's checks
are its alpha search's and then its walk's, from alpha's targets. The
loaders' counts are the full matches of the texts between two ids of the
students array (files._Gaps), made once per distinct text, and the calls
of the schema walk (files._error), on a generated file and on all three
benchmark inputs at seed 1: each takes the token reader, never the
whole-text json.loads, and sends no student through the walk. A change
that lowers a count updates its pin; one that raises a count says why.
The choice pins rose when alpha's targets got their own check, as a
check costs microseconds.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import pytest
from factories import hard_regime_school, recorded_choices, sparse_type_school
from test_golden import CORPUS

from reserve_match import files, flow, gda, model
from reserve_match.files import (
    dump_json,
    instance_from_payload,
    instance_to_payload,
    load_instance,
    load_multi,
    multi_from_payload,
)
from reserve_match.flow import choice_flow
from reserve_match.gda import run_gda
from reserve_match.generator import generate_instance
from reserve_match.model import Instance
from reserve_match.verify import verify_balanced_and_jef

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _counted(monkeypatch: Any) -> Counter:
    """Count lattice checks from now on, as "lattice"."""
    counts: Counter = Counter()
    check = flow._TypeLattice.check

    def counted(self: Any, targets: Any) -> bool:
        counts["lattice"] += 1
        return check(self, targets)

    monkeypatch.setattr(flow._TypeLattice, "check", counted)
    return counts


def _workload(monkeypatch: Any, name: str) -> dict:
    """A benchmark workload's input payload at seed 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    payload, _generate_s = getattr(workloads, name)(1)
    return payload


@pytest.mark.parametrize(
    "make, checks",
    [
        (CORPUS["hard-1500-reserved-92"][0], 4),
        (lambda: hard_regime_school(100, 8, 85), 3),
        (lambda: hard_regime_school(60, 2, 90), 5),
        # the alpha search's first ratio fails, and so does the walk's
        # first prefix: two checks each
        (lambda: hard_regime_school(100, 15, 90), 4),
    ],
    ids=["hard-1500-reserved-92", "hard-100-8-85", "hard-60-2-90", "hard-100-15-90"],
)
def test_checks_of_one_choice(monkeypatch, make: Callable[[], Instance], checks):
    instance = make()
    counts = _counted(monkeypatch)
    choice_flow(instance)
    assert counts == {"lattice": checks}


def test_checks_of_the_solve_hard_workload(monkeypatch):
    instance = instance_from_payload(_workload(monkeypatch, "solve_hard"))
    counts = _counted(monkeypatch)
    choice_flow(instance)
    assert counts == {"lattice": 5}


@pytest.mark.parametrize(
    "k, checks, verify_checks",
    [(6, 1, 2), (8, 2, 2), (10, 2, None), (12, 2, None)],
)
def test_lattice_work_at_many_groups(monkeypatch, k, checks, verify_checks):
    """choice_flow and verify on generate_instance(20000, k, 2, 7), G = 2^k
    groups (4,056 at k = 12); verify at k = 10 and 12 is left out, as its
    pair scan alone takes seconds."""
    instance = generate_instance(20000, k, 2, 7)
    counts = _counted(monkeypatch)
    result = choice_flow(instance)
    assert counts == {"lattice": checks}
    if verify_checks is not None:
        counts.clear()
        verify_balanced_and_jef(instance, result.selected)
        assert counts == {"lattice": verify_checks}


def test_flow_work_on_a_school_of_many_types_in_few_groups(monkeypatch):
    """12 types in 20 groups: 4,096 type sets, each check one pass over
    them."""
    instance = sparse_type_school(2000, 12, 20, 3)
    counts = _counted(monkeypatch)
    result = choice_flow(instance)
    assert counts == {"lattice": 1}
    counts.clear()
    verify_balanced_and_jef(instance, result.selected)
    assert counts == {"lattice": 2}


def _watched(monkeypatch: Any, counts: Counter) -> None:
    """Count, from now on, the instances cut from a school
    (model.restrict_instance) as "cuts" and every Instance built, a cut
    included, as "instances"."""
    cut = model.restrict_instance
    build = Instance.__init__

    def cutting(*args: Any) -> Any:
        counts["cuts"] += 1
        return cut(*args)

    def building(self: Instance, *args: Any, **kwargs: Any) -> None:
        counts["instances"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(model, "restrict_instance", cutting)
    monkeypatch.setattr(gda, "restrict_instance", cutting)
    monkeypatch.setattr(Instance, "__init__", building)


def test_work_of_the_gda_market_workload(monkeypatch):
    """412 lattice checks in 292 choices, over 306 pools, of which 14 fit
    their school and make no choice; the run cuts no pool from its school's
    instance and builds no Instance."""
    multi = multi_from_payload(_workload(monkeypatch, "gda_market"))
    counts = _counted(monkeypatch)
    _watched(monkeypatch, counts)
    with recorded_choices() as made:
        result = run_gda(multi)
    assert counts == {"lattice": 412}
    assert counts["cuts"] == counts["instances"] == 0
    assert len(made) == 292
    assert sum(len(rt.pools) for rt in result.rounds) == 306


def test_work_of_the_gda_market_probe(monkeypatch):
    """The benchmark's probe of the gda-market input: 2 lattice checks in 2
    choices, the pools with and without s1, with no Instance built and no
    school's priority bucketed by group (Instance.member_positions)."""
    payload = _workload(monkeypatch, "gda_market")
    import workloads

    school, s1, s2 = workloads.probe_spec(payload).split(":")
    multi = multi_from_payload(payload)
    counts = _counted(monkeypatch)
    _watched(monkeypatch, counts)
    with recorded_choices() as made:
        violation = gda.substitutability_probe(
            multi.instances[school], multi.student_ids - {s1, s2}, s1, s2
        )
    assert violation is None
    assert counts == {"lattice": 2}
    assert counts["cuts"] == counts["instances"] == 0
    assert len(made) == 2
    assert not any("_positions" in vars(i) for i in multi.instances.values())


def _load_work(
    monkeypatch: Any, load: Callable, path: Path
) -> tuple[int, list, int]:
    """The full matches of between-ids texts made while loading path, the
    values json.loads decoded meanwhile, and the calls of the schema walk,
    its recursive calls included."""
    matches = walks = 0
    decoded: list = []
    missing = files._Gaps.__missing__
    loads = json.loads
    walk = files._error

    def walking(value: Any, schema: dict) -> Any:
        nonlocal walks
        walks += 1
        return walk(value, schema)

    def matching(self: Any, text: str) -> int:
        nonlocal matches
        matches += 1
        return missing(self, text)

    def recording(text: str, *args: Any, **kwargs: Any) -> Any:
        decoded.append(loads(text, *args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(files._Gaps, "__missing__", matching)
    monkeypatch.setattr(json, "loads", recording)
    monkeypatch.setattr(files, "_error", walking)
    load(str(path))
    return matches, decoded, walks


# The schema walk's calls per load. It sees the students array empty, so
# they do not grow with the students: an instance makes 18 (the top level,
# its 5 members and 3 quota entries of 4 calls each), the market 20
# schools of 17 calls each and 5 for the top level.
WALKS = {
    "generate_instance(20000, 3, 2, 7)": 18,
    "solve_hard": 18,
    "solve_wide": 18,
    "gda_market": 345,
}


@pytest.mark.parametrize("name", list(WALKS))
def test_between_ids_matches_of_a_load(monkeypatch, tmp_path, name):
    if name.startswith("generate_instance"):
        payload = instance_to_payload(generate_instance(20000, 3, 2, 7))
    else:
        payload = _workload(monkeypatch, name)
    load = load_multi if name == "gda_market" else load_instance
    path = tmp_path / "input.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    matches, decoded, walked = _load_work(monkeypatch, load, path)
    # one match per distinct text: the 8 types arrays of 3 types, each
    # decoded once, and no json.loads of a slice or of the whole text
    assert matches == 8
    assert len(decoded) == 8
    assert all(isinstance(value, list) and all(isinstance(t, str) for t in value)
               for value in decoded)
    assert walked == WALKS[name]
