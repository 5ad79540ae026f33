"""The type lattice against the reference min-cost flow engine.

`flow._TypeLattice` decides validity from the type sets alone: F* and s* by
Edmonds' greedy, and a target vector is valid when every type set T has
sum {l_u : K_u inside T} <= rhs(T). These tests hold it to the reserve
network of `flow_reference` on hypothesis `instances()`, the golden corpus,
hard-regime schools, `generate_instance` up to k = 10 types and schools of
many types in few groups:

- its verdict equals the reference check's on random and boundary targets:
  the crucial targets, and those plus one in one group, for a few groups,
  and vectors grown one unit at a time while the lattice accepts them, and
  those plus one in one group;
- each cut of a failed check is broken by the targets checked and bounds
  the group counts of every valid flow witness;
- a vector above F* that fits every group fails on the type sets alone,
  with a cut it breaks;
- a Pool reads its instance's one lattice, laid out over the instance's
  whole key table, whenever the pool is built;
- the canonical counts of a valid vector (`_TypeLattice.base`) meet it and
  are a maximal-diversity flow's exact group counts;
- F* and s* equal the reference's `compute_certificate` value and
  `flow_signature` of f*;
- `choice_flow` and `run_gda` give the same results with their checks on
  the lattice and on the reference network (`flow.build_network` set to
  `flow_reference.build_network`).
"""

from __future__ import annotations

import random
from itertools import chain

import flow_reference
import pytest
from factories import (
    hard_regime_school,
    random_school,
    seeded_market,
    sparse_type_school,
)
from flow_reference import (
    FlowNetwork,
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_group_counts,
    flow_signature,
)
from hypothesis import assume, given
from hypothesis import strategies as st
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances, instances_with_targets

from reserve_match import flow
from reserve_match.flow import choice_flow, crucial_vector
from reserve_match.gda import run_gda
from reserve_match.generator import generate_instance
from reserve_match.model import Instance, Pool, TargetVector, restrict_instance

SCHOOLS = {
    **{name: make for name, (make, _solve, _baseline) in CORPUS.items()},
    "hard-100-8-85": lambda: hard_regime_school(100, 8, 85),
    "hard-60-2-90": lambda: hard_regime_school(60, 2, 90),
    "hard-600-3": lambda: hard_regime_school(600, 3),
    "gen-2000-k6": lambda: generate_instance(2000, 6, 2, 7),
    "gen-3000-k8-minmax": lambda: generate_instance(3000, 8, 3, 7, "minmax"),
    "gen-2000-k10": lambda: generate_instance(2000, 10, 2, 7),
}


def _lattice(instance: Instance) -> flow._TypeLattice:
    """The instance's checks on a lattice laid out afresh."""
    types = sorted(set(chain.from_iterable(instance.group_keys())))
    return flow._TypeLattice(instance, flow._LatticeLayout(instance, types))


def _boundary_targets(
    rng: random.Random, instance: Instance, net: FlowNetwork, count: int = 8
) -> list[dict]:
    """The crucial targets, and those plus one in each of up to `count`
    groups, one group at a time."""
    _alpha, targets = crucial_vector(instance, network=net)
    sizes = zip(instance.group_keys(), map(len, instance.member_positions()))
    room = [key for key, size in sizes if targets[key] < size]
    picked = rng.sample(room, min(count, len(room)))
    return [targets] + [{**targets, key: targets[key] + 1} for key in picked]


def _random_targets(rng: random.Random, instance: Instance, count: int) -> list[dict]:
    """Random vectors, each group's target up to its size, scaled so that
    some fit under F* and some do not."""
    sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))
    vectors = []
    for _ in range(count):
        share = rng.random()
        vectors.append(
            {key: min(size, round(share * rng.random() * 2 * size))
             for key, size in sizes.items()}
        )
    return vectors


def _grown_targets(rng: random.Random, instance: Instance, plus: int = 8) -> list[dict]:
    """Vectors on the edge of the lattice's verdicts: from zero targets, a
    random group gains one while the lattice accepts the vector (a group it
    refuses once stays refused, as validity is downward closed), and then
    that vector plus one in each of up to `plus` groups."""
    lattice = _lattice(instance)
    sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))
    grown = dict.fromkeys(sizes, 0)
    live = [key for key, size in sizes.items() if size]
    while live:
        key = rng.choice(live)
        grown[key] += 1
        if lattice.check(grown) is None:
            grown[key] -= 1
            live.remove(key)
        elif grown[key] == sizes[key]:
            live.remove(key)
    room = [key for key, size in sizes.items() if grown[key] < size]
    picked = rng.sample(room, min(plus, len(room)))
    return [grown] + [{**grown, key: grown[key] + 1} for key in picked]


def _assert_agrees(instance: Instance, targets: list[TargetVector]) -> None:
    """Verdicts, cuts and the certificate of the lattice against a network."""
    net = build_network(instance)
    best = compute_certificate(net)
    lattice = _lattice(instance)
    assert lattice.value == best.value
    assert lattice.per_rank == flow_signature(net, best)
    witnesses = [best]
    failed = []
    for vector in targets:
        witness = check_validity_flow(instance, vector, network=net)
        assert lattice.check(vector) == (witness is not None), vector
        if witness is None:
            cut = lattice.cut
            assert sum(vector.get(key, 0) for key in cut.groups) > cut.bound
            failed.append(cut)
        else:
            witnesses.append(witness)
            counts = lattice.base(vector)
            assert all(counts[key] >= want for key, want in vector.items())
            exact = check_validity_flow(instance, counts, network=net)
            assert flow_group_counts(net, exact) == counts
    for cut in failed:
        for witness in witnesses:
            counts = flow_group_counts(net, witness)
            assert sum(counts[key] for key in cut.groups) <= cut.bound


@pytest.mark.parametrize("name", list(SCHOOLS))
def test_lattice_verdicts_match_the_network(name):
    instance = SCHOOLS[name]()
    net = build_network(instance)
    rng = random.Random(name)
    _assert_agrees(
        instance,
        _boundary_targets(rng, instance, net)
        + _random_targets(rng, instance, 12)
        + _grown_targets(rng, instance),
    )


@PROPERTY_SETTINGS
@given(instances_with_targets())
def test_lattice_verdicts_match_the_network_on_drawn_instances(case):
    instance, targets = case
    rng = random.Random(len(instance.priority))
    _assert_agrees(
        instance,
        [targets, *_random_targets(rng, instance, 3)]
        + _boundary_targets(rng, instance, build_network(instance))
        + _grown_targets(rng, instance)
        + _grown_targets(rng, instance),
    )


def test_lattice_verdicts_match_the_network_on_random_schools():
    """Two reserved ranks below the general one: here a type set can hold
    more rank-1 quota than s*_1 and less rank-2 quota than s*_2, so rhs
    needs each min(s*_j, Q_j(T)); grown vectors find those sets."""
    rng = random.Random(31)
    for _ in range(300):
        instance = random_school(rng, 12)
        if instance.group_keys():
            grown = [_grown_targets(rng, instance) for _ in range(3)]
            _assert_agrees(instance, list(chain.from_iterable(grown)))


def test_lattice_rejects_what_the_network_rejects():
    instance = hard_regime_school(100, 8, 85)
    lattice = _lattice(instance)
    with pytest.raises(ValueError, match="unknown groups"):
        lattice.check({("nope",): 1})
    with pytest.raises(ValueError, match="negative target"):
        lattice.check({instance.group_keys()[0]: -1})


@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_over_full_targets_fail_with_a_cut_they_break(instance, data):
    """rhs(T) <= sum of s* = F* for the set T of every type, so a vector
    that sums to more than F* fails there, with no test of its sum."""
    sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))
    net = flow.build_network(instance)
    over = sum(sizes.values()) - net.value
    assume(over > 0)
    # every group full, less fewer units than the students above F*
    drop = data.draw(st.integers(0, over - 1))
    targets = {}
    for key, size in sizes.items():
        out = data.draw(st.integers(0, min(size, drop)))
        targets[key] = size - out
        drop -= out
    assert sum(targets.values()) > net.value
    assert not net.check(targets)
    assert sum(targets[key] for key in net.cut.groups) > net.cut.bound
    assert check_validity_flow(instance, targets) is None


@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_pools_built_before_and_after_the_layout_read_one_lattice(instance, data):
    keys, members = instance.group_keys(), instance.member_positions()
    kept = [[p for p in group if data.draw(st.booleans())] for group in members]
    live = [g for g, positions in enumerate(kept) if positions]

    def pool() -> Pool:
        return Pool(instance, [keys[g] for g in live], [kept[g] for g in live])

    before = pool()
    assert instance.lattice is None
    early = flow.build_network(before)
    layout = instance.lattice
    late = flow.build_network(pool())
    assert instance.lattice is layout
    assert list(layout.masks) == list(keys)
    ids = [instance.priority[p] for g in live for p in kept[g]]
    cut = flow.build_network(restrict_instance(instance, ids))
    for _ in range(4):
        targets = {
            keys[g]: data.draw(st.integers(0, len(kept[g]) + 1)) for g in live
        }
        assert early.check(targets) == late.check(targets) == cut.check(targets)


def _fields(result) -> tuple:
    return (
        result.selected,
        result.per_group_counts,
        result.signature,
        result.alpha,
        result.targets,
    )


def _on_the_reference(make) -> object:
    """choice_flow of a fresh instance with its checks on the reference
    network."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "build_network", build_network)
        return choice_flow(make())


def _on_both_engines(make) -> None:
    """choice_flow of a fresh instance on the type lattice, then on the
    reference network, field by field."""
    assert _fields(choice_flow(make())) == _fields(_on_the_reference(make))


@pytest.mark.parametrize("name", list(SCHOOLS))
def test_choices_match_across_the_engine_rule(name):
    _on_both_engines(SCHOOLS[name])


@pytest.mark.parametrize("types, groups", [(12, 20), (14, 30), (13, 12)])
def test_choices_match_on_the_flow_side_of_the_rule(types, groups):
    """Many occurring types in few groups, the lattice's costliest shape."""
    _on_both_engines(lambda: sparse_type_school(400, types, groups, types))


@PROPERTY_SETTINGS
@given(instances())
def test_choices_match_across_the_engine_rule_on_drawn_instances(instance):
    lattice = choice_flow(instance)
    assert _fields(lattice) == _fields(_on_the_reference(lambda: instance))


def test_gda_on_the_lattice_lays_out_each_school_once_and_builds_no_network(
    monkeypatch,
):
    layouts = []
    original = flow._LatticeLayout.__init__

    def counted(self, instance, types):
        layouts.append(instance)
        original(self, instance, types)

    def refused(self, instance):
        raise AssertionError("a reference network was built")

    with monkeypatch.context() as patch:
        patch.setattr(flow._LatticeLayout, "__init__", counted)
        patch.setattr(flow_reference.FlowNetwork, "__init__", refused)
        result = run_gda(seeded_market(600, 2))
    assert len(layouts) == len({id(instance) for instance in layouts}) > 1
    with monkeypatch.context() as patch:
        patch.setattr(flow, "build_network", build_network)
        reference = run_gda(seeded_market(600, 2))
    assert result == reference
