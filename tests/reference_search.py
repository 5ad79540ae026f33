"""Reference searches for differential tests of the flow backend.

These are the straightforward algorithms `flow` used before its searches were
batched: the alpha search materializes every candidate ratio k/|S_u| and
bisects over the sorted set, and the greedy walk makes one validity check per
remaining student. They are slow but obviously correct, so the fast versions
must reproduce them exactly.

It also holds the references for validity checks: the lower-bounded solve
`flow` used before it answered checks on the optimum's residual graph (lower
bounds on the source arcs, eliminated through an auxiliary source and sink
with a sink->source return arc, then a min-cost max-flow on top), the
oracle's verdict for target vectors, and the checks a validity witness must
pass, shared by the differential validity tests. Last, it holds the
literal justified-envy scan over every (unselected, selected) pair, the
reference for the verifier's one extreme pair per group pair.

It holds the multi-school rounds as `gda` ran them before it kept
one instance per school: every round rebuilds each pool from the raw
student list, and every unmatched student scans their list past a set of
refusing schools.

It holds the reserve network as `flow` built it before it kept flat
arc lists on a per-instance seat layout: one frozen `Arc` per arc, with
every node, capacity and rank cost computed from scratch for each network.

Finally it holds the loaders as they were before instances became
columnar: one StudentRecord and frozenset per student, validation by
sorting the priority list against the ids and subtracting type sets per
student, and groups built by a walk over the records. The columnar loaders
must give the same instances and the same error text (multi-school errors
from one school's instance now name the school). Beside them sits the
generator as it was then: one StudentRecord and frozenset per student, with
the same random calls in the same order as the columnar generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Collection, Iterable, Mapping, Optional, Sequence

from reserve_match.files import (
    INSTANCE_SCHEMA,
    MULTI_SCHEMA,
    InstanceFormatError,
    _quotas_from_payload,
    _validated,
)

from reserve_match.flow import (
    FlowAssignment,
    FlowNetwork,
    OptimalityCertificate,
    _MinCostFlow,
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    flow_group_counts,
    flow_signature,
    flow_to_matching,
    rank_cost,
)
from reserve_match.gda import MultiInstance, MultiMatching, RoundTrace
from reserve_match.generator import QUOTA_STYLES, _draw_quotas
from reserve_match.model import (
    GENERAL_TYPE,
    MAX_RANKS,
    ChoiceResult,
    Group,
    GroupKey,
    Instance,
    InternalInvariantError,
    MalformedInstanceError,
    Ratio,
    SeatMatching,
    Signature,
    StudentRecord,
    TargetVector,
    check_matching,
    group_counts,
    group_label,
    matching_signature,
)
from reserve_match.oracle import MaximalDiversitySet


def full_candidate_crucial_vector(
    instance: Instance,
    *,
    network: Optional[FlowNetwork] = None,
    cert: Optional[OptimalityCertificate] = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Alpha by bisection over the full sorted set {0} | {k / |S_u|}."""
    net = network if network is not None else build_network(instance)
    if cert is None:
        cert = compute_certificate(net)
    groups = instance.groups()
    candidates = {Fraction(0)}
    for g in groups:
        candidates.update(Fraction(k, g.size) for k in range(1, g.size + 1))
    ordered = sorted(candidates)

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        return {g.key: math.ceil(beta * g.size) for g in groups}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(
            instance, targets_at(beta), network=net, cert=cert
        )
        return witness is not None

    lo, hi = 0, len(ordered) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(ordered[mid]):
            lo = mid
        else:
            hi = mid - 1
    alpha = ordered[lo]
    if not feasible(alpha):
        raise AssertionError("zero-target validity failed")
    return alpha, targets_at(alpha)


def sequential_choice(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> ChoiceResult:
    """Balanced selection with one validity check per remaining student."""
    net = build_network(instance)
    cert = compute_certificate(net)
    groups = instance.groups()
    if delta_star is None:
        alpha, delta_star = full_candidate_crucial_vector(
            instance, network=net, cert=cert
        )
    targets = {g.key: int(delta_star.get(g.key, 0)) for g in groups}
    if check_validity_flow(instance, targets, network=net, cert=cert) is None:
        raise ValueError("delta_star is not a valid target vector")
    if alpha is None:
        alpha = min(
            (Fraction(targets[g.key], g.size) for g in groups),
            default=Fraction(0),
        )

    counts = dict(targets)
    selected: set[str] = set()
    for g in groups:
        selected.update(g.members[: targets[g.key]])
    # (group, attempted count) pairs already rejected; later attempts with the
    # same pair face componentwise larger bounds, so they stay invalid
    dead: set[tuple[GroupKey, int]] = set()
    for sid in instance.priority:
        if sid in selected:
            continue
        key = instance.group_of(sid)
        attempt = counts[key] + 1
        if (key, attempt) in dead:
            continue
        trial = dict(counts)
        trial[key] = attempt
        if check_validity_flow(instance, trial, network=net, cert=cert) is not None:
            counts = trial
            selected.add(sid)
        else:
            dead.add((key, attempt))

    witness = check_validity_flow(instance, counts, network=net, cert=cert)
    if witness is None:
        raise AssertionError("final selection lost maximal diversity")
    return ChoiceResult(
        selected=frozenset(selected),
        per_group_counts=counts,
        signature=flow_signature(net, witness),
        alpha=alpha,
        targets=targets,
    )


def assert_same_choice(fast: ChoiceResult, slow: ChoiceResult) -> None:
    """Every field of two choice results agrees, not just the selection."""
    assert fast.selected == slow.selected
    assert fast.per_group_counts == slow.per_group_counts
    assert fast.signature == slow.signature
    assert fast.alpha == slow.alpha
    assert fast.targets == slow.targets


def oracle_targets_valid(mset: MaximalDiversitySet, targets: TargetVector) -> bool:
    """Targets are valid iff some rank-maximal count vector meets every one."""
    return any(
        all(counts[key] >= want for key, want in targets.items())
        for counts in map(mset.counts_as_dict, mset.count_vectors)
    )


def oracle_count_validity(
    mset: MaximalDiversitySet,
) -> Callable[[dict[GroupKey, int]], bool]:
    """Exact-count validity by enumeration: the counts are a rank-maximal vector."""
    vectors = [mset.counts_as_dict(vector) for vector in mset.count_vectors]
    return lambda counts: counts in vectors


def literal_envy_witness(
    instance: Instance,
    chosen: Collection[str],
    alpha: Ratio,
    valid: Callable[[dict[GroupKey, int]], bool],
) -> Optional[tuple[str, str]]:
    """First justified-envy pair (unselected, selected) by the definition, or None.

    Unselected students are tried in descending priority, each against the
    selected students of lower priority from the bottom up. A pair qualifies
    when the swapped selection's counts pass valid and its minimum selection
    ratio is alpha. valid must be an exact-count test (some maximal-diversity
    matching has exactly these counts); the flow check is one whenever the
    counts sum to min(|S|, q). Verdicts are memoized by swapped count vector.
    """
    counts = group_counts(instance, chosen)
    groups = instance.groups()
    verdicts: dict[tuple[int, ...], bool] = {}

    def envies(s: str, s_prime: str) -> bool:
        swapped = dict(counts)
        swapped[instance.group_of(s)] += 1
        swapped[instance.group_of(s_prime)] -= 1
        vector = tuple(swapped[g.key] for g in groups)
        if vector not in verdicts:
            worst = min(
                (Fraction(swapped[g.key], g.size) for g in groups),
                default=Fraction(0),
            )
            verdicts[vector] = valid(swapped) and worst == alpha
        return verdicts[vector]

    prio = {sid: p for p, sid in enumerate(instance.priority)}
    outsiders = [sid for sid in instance.priority if sid not in chosen]
    insiders = [sid for sid in reversed(instance.priority) if sid in chosen]
    for s in outsiders:
        for s_prime in insiders:
            if prio[s_prime] <= prio[s]:
                break
            if envies(s, s_prime):
                return s, s_prime
    return None


def assert_valid_witness(
    instance: Instance,
    matching: SeatMatching,
    targets: TargetVector,
    signature: Signature,
) -> None:
    """A well-formed matching with the best signature that meets the targets."""
    check_matching(instance, matching)
    assert matching_signature(instance, matching) == signature
    counts = group_counts(instance, matching)
    for key, want in targets.items():
        assert counts[key] >= want


def lower_bounds(network: FlowNetwork, targets: TargetVector) -> list[int]:
    """Per-arc lower bounds: each group's target on its source arc."""
    unknown = set(targets) - network.group_arcs.keys()
    if unknown:
        raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
    lower = [0] * len(network.tails)
    for key, value in targets.items():
        if value < 0:
            raise ValueError(f"negative target for group {group_label(key)}")
        lower[network.group_arcs[key]] = value
    return lower


def lower_bounded_flow(
    network: FlowNetwork, lower: list[int]
) -> Optional[FlowAssignment]:
    """Min-cost max-flow under per-arc lower bounds; None iff infeasible.

    The classical elimination transform: subtract the bounds from the
    capacities, route the forced imbalance through an auxiliary source/sink
    pair (with a sink->source return arc), then close the return arc and
    keep augmenting source->sink for the maximum value.
    """
    tails, heads = network.tails, network.heads
    caps, costs = network.capacities, network.costs
    n = network.node_count
    if any(low > cap for low, cap in zip(lower, caps)):
        return None
    aux_source, aux_sink = n, n + 1
    excess = [0] * n
    for low, u, v in zip(lower, tails, heads):
        excess[v] += low
        excess[u] -= low
    # the network's arcs with reduced capacities, then the return arc, then
    # the arcs that carry the forced imbalance
    extra = [(network.sink, network.source, sum(caps) + 1)]
    required = 0
    for v in range(n):
        if excess[v] > 0:
            extra.append((aux_source, v, excess[v]))
            required += excess[v]
        elif excess[v] < 0:
            extra.append((v, aux_sink, -excess[v]))
    solver = _MinCostFlow(
        n + 2,
        tails + [u for u, _v, _cap in extra],
        heads + [v for _u, v, _cap in extra],
        [cap - low for cap, low in zip(caps, lower)] + [cap for *_ends, cap in extra],
        costs + [0] * len(extra),
    )
    loop = 2 * len(tails)
    forced, _ = solver.run(aux_source, aux_sink)
    if forced != required:
        return None
    solver.cap[loop] = 0
    solver.cap[loop ^ 1] = 0
    solver.run(network.source, network.sink)
    flows = tuple(f + low for f, low in zip(solver.arc_flows(), lower))
    value = sum(f for f, u in zip(flows, tails) if u == network.source)
    cost = sum(f * c for f, c in zip(flows, costs))
    return FlowAssignment(value=value, cost=cost, arc_flows=flows)


def lower_bounded_validity(
    instance: Instance, targets: TargetVector
) -> Optional[FlowAssignment]:
    """Validity by a full lower-bounded solve: the witness if the
    bounded optimum still has the unconstrained value F* and cost C*."""
    net = build_network(instance)
    cert = compute_certificate(net)
    lower = lower_bounds(net, targets)
    if sum(targets.values()) > cert.max_value:
        return None
    bounded = lower_bounded_flow(net, lower)
    if bounded is None:
        return None
    if bounded.value != cert.max_value or bounded.cost != cert.min_cost:
        return None
    return bounded


def assert_flow_witness(
    instance: Instance,
    network: FlowNetwork,
    cert: OptimalityCertificate,
    witness: FlowAssignment,
    targets: TargetVector,
) -> None:
    """A witness flow respects every capacity, conserves flow, has the
    optimum's value and cost, meets the targets and decomposes."""
    flows = witness.arc_flows
    assert len(flows) == len(network.tails)
    balance = [0] * network.node_count
    for f, u, v, cap in zip(flows, network.tails, network.heads, network.capacities):
        assert 0 <= f <= cap
        balance[u] -= f
        balance[v] += f
    value = balance[network.sink]
    assert balance[network.source] == -value
    ends = (network.source, network.sink)
    assert all(b == 0 for v, b in enumerate(balance) if v not in ends)
    cost = sum(f * c for f, c in zip(flows, network.costs))
    assert (witness.value, witness.cost) == (value, cost)
    assert (value, cost) == (cert.max_value, cert.min_cost)
    counts = flow_group_counts(network, witness)
    for key, want in targets.items():
        assert counts[key] >= want
    flow_to_matching(instance, witness, network=network)


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: int
    cost: int


class ArcNetwork:
    """The four-layer reserve network as one Arc per arc, built from scratch.

    Same node and arc order as FlowNetwork: source 0, sink 1, type nodes,
    seat-class nodes, the hub, then a node per group as its arcs are added.
    """

    def __init__(self, instance: Instance) -> None:
        self.max_rank = instance.max_rank
        self.source = 0
        self.sink = 1
        self.node_count = 2

        def add_node() -> int:
            self.node_count += 1
            return self.node_count - 1

        self.arcs: list[Arc] = []
        self.group_arcs: dict[GroupKey, int] = {}
        self.group_type_arcs: dict[tuple[GroupKey, str], int] = {}
        self.rank_arcs: dict[tuple[str, int], int] = {}
        self.seat_exit_arcs: dict[tuple[str, int], int] = {}

        def add_arc(tail: int, head: int, cap: int, cost: int) -> int:
            self.arcs.append(Arc(tail, head, cap, cost))
            return len(self.arcs) - 1

        all_types = sorted(instance.types) + [GENERAL_TYPE]
        type_node = {t: add_node() for t in all_types}
        class_node = {
            (t, j): add_node()
            for t in all_types
            for j in range(1, self.max_rank + 1)
        }
        hub = add_node()

        for g in instance.groups():
            u = add_node()
            self.group_arcs[g.key] = add_arc(self.source, u, g.size, 0)
            for t in list(g.key) + [GENERAL_TYPE]:
                self.group_type_arcs[(g.key, t)] = add_arc(u, type_node[t], g.size, 0)
        for t in all_types:
            for j in range(1, self.max_rank + 1):
                if t == GENERAL_TYPE:
                    cap = instance.capacity if j == self.max_rank else 0
                else:
                    cap = instance.quotas.get((t, j), 0)
                cost = rank_cost(j, instance.capacity, self.max_rank)
                node = class_node[(t, j)]
                self.rank_arcs[(t, j)] = add_arc(type_node[t], node, cap, cost)
                self.seat_exit_arcs[(t, j)] = add_arc(node, hub, cap, 0)
        self.q_sink_arc = add_arc(hub, self.sink, instance.capacity, 0)


def assert_same_network(network: FlowNetwork, instance: Instance) -> None:
    """The flat arc lists and every arc-index map, in order, equal the Arc
    reference's."""
    ref = ArcNetwork(instance)
    assert network.tails == [a.tail for a in ref.arcs]
    assert network.heads == [a.head for a in ref.arcs]
    assert network.capacities == [a.capacity for a in ref.arcs]
    assert network.costs == [a.cost for a in ref.arcs]
    assert (network.source, network.sink) == (ref.source, ref.sink)
    assert (network.node_count, network.max_rank) == (ref.node_count, ref.max_rank)
    # the maps' order too: the optimum walks groups in group_arcs order
    for name in ("group_arcs", "group_type_arcs", "rank_arcs", "seat_exit_arcs"):
        assert list(getattr(network, name).items()) == list(getattr(ref, name).items())
    assert network.q_sink_arc == ref.q_sink_arc


def rebuilt_induced_instance(
    multi: MultiInstance, school_id: str, applicants: Iterable[str]
) -> Instance:
    """One school's instance over an applicant pool, built from the raw lists."""
    school = {c.id: c for c in multi.schools}[school_id]
    chosen = set(applicants)
    unknown = chosen - multi.student_ids
    if unknown:
        raise KeyError(f"unknown student ids: {sorted(unknown)}")
    return Instance(
        students=[s for s in multi.students if s.id in chosen],
        capacity=school.capacity,
        priority=[sid for sid in school.priority if sid in chosen],
        types=multi.types,
        quotas=school.quotas,
    )


def rescanning_gda(multi: MultiInstance) -> MultiMatching:
    """Deferred acceptance that rescans every student each round."""
    held: dict[str, frozenset[str]] = {c.id: frozenset() for c in multi.schools}
    refused: dict[str, set[str]] = {s.id: set() for s in multi.students}
    order = [sid for sid in sorted(held)]
    rounds: list[RoundTrace] = []
    limit = len(multi.students) * len(multi.schools) + 1
    while True:
        matched = {sid for chosen in held.values() for sid in chosen}
        proposals: dict[str, list[str]] = {}
        for s in multi.students:
            if s.id in matched:
                continue
            target = next(
                (c for c in multi.preference_list(s.id) if c not in refused[s.id]),
                None,
            )
            if target is not None:
                proposals.setdefault(target, []).append(s.id)
        if not proposals:
            break
        if len(rounds) >= limit:
            raise InternalInvariantError("proposal rounds exceeded |S| * |C|")
        pools: dict[str, tuple[str, ...]] = {}
        rejected: dict[str, tuple[str, ...]] = {}
        for cid in order:
            if cid not in proposals:
                continue
            pool = held[cid] | set(proposals[cid])
            sub = rebuilt_induced_instance(multi, cid, pool)
            chosen = choice_flow(sub).selected
            pools[cid] = sub.priority
            rejected[cid] = tuple(sid for sid in sub.priority if sid not in chosen)
            for sid in rejected[cid]:
                refused[sid].add(cid)
            held[cid] = chosen
        rounds.append(
            RoundTrace(
                number=len(rounds) + 1,
                proposals={
                    cid: tuple(sorted(proposals[cid])) for cid in sorted(proposals)
                },
                pools=pools,
                selected={
                    cid: tuple(sorted(held[cid])) for cid in order
                },
                rejected=rejected,
            )
        )
    assignment: dict[str, Optional[str]] = {s.id: None for s in multi.students}
    for cid, chosen in held.items():
        for sid in chosen:
            assignment[sid] = cid
    return MultiMatching(
        assignment=assignment, per_school=dict(held), rounds=tuple(rounds)
    )


class RecordInstance:
    """Instance construction and validation over one record per student."""

    def __init__(
        self,
        students: Sequence[StudentRecord],
        capacity: int,
        priority: Sequence[str],
        types: Iterable[str],
        quotas: Mapping[tuple[str, int], int],
    ) -> None:
        self.students = tuple(students)
        self.capacity = int(capacity)
        self.priority = tuple(priority)
        self.types = frozenset(types)
        self.quotas = dict(quotas)
        self._validate()

    def _validate(self) -> None:
        if self.capacity < 0:
            raise MalformedInstanceError("capacity must be non-negative")
        ids = [s.id for s in self.students]
        if len(set(ids)) != len(ids):
            raise MalformedInstanceError("duplicate student id")
        if GENERAL_TYPE in self.types:
            raise MalformedInstanceError(
                f"type name {GENERAL_TYPE!r} is reserved for the general type"
            )
        if sorted(self.priority) != sorted(ids):
            raise MalformedInstanceError(
                "priority must be a permutation of all student ids"
            )
        for s in self.students:
            extra = s.type_set - self.types
            if extra:
                raise MalformedInstanceError(
                    f"student {s.id!r} references unknown types {sorted(extra)}"
                )
        for (t, rank), count in self.quotas.items():
            if t not in self.types:
                raise MalformedInstanceError(f"quota for unknown type {t!r}")
            if rank < 1:
                raise MalformedInstanceError("quota ranks start at 1")
            if rank >= MAX_RANKS:
                raise MalformedInstanceError(
                    f"quota ranks must be below {MAX_RANKS}"
                )
            if count < 0:
                raise MalformedInstanceError("quota counts must be non-negative")

    def groups(self) -> tuple[Group, ...]:
        by_set: dict[frozenset[str], list[str]] = {}
        by_id = {s.id: s for s in self.students}
        for sid in self.priority:
            by_set.setdefault(by_id[sid].type_set, []).append(sid)
        by_key = {tuple(sorted(held)): ids for held, ids in by_set.items()}
        return tuple(Group(key, tuple(by_key[key])) for key in sorted(by_key))

    def group_of(self, student_id: str) -> GroupKey:
        return {sid: g.key for g in self.groups() for sid in g.members}[student_id]


def _records(raw: list[dict]) -> list[StudentRecord]:
    return [StudentRecord(s["id"], frozenset(s["types"])) for s in raw]


def record_instance_from_payload(payload: Any) -> RecordInstance:
    """The instance loader over one record per student."""
    _validated(payload, INSTANCE_SCHEMA, "instance file")
    try:
        return RecordInstance(
            students=_records(payload["students"]),
            capacity=int(payload["capacity"]),
            priority=payload["priority"],
            types=payload["types"],
            quotas=_quotas_from_payload(payload["quotas"]),
        )
    except MalformedInstanceError as err:
        raise InstanceFormatError(str(err)) from err


def record_multi_from_payload(payload: Any) -> dict[str, RecordInstance]:
    """The multi-school loader over one record per student: the checks of
    MultiInstance in their order, then one record instance per school, whose
    errors name the school. Returns the school instances by id."""
    _validated(payload, MULTI_SCHEMA, "multi-school file")
    try:
        students = _records(payload["students"])
        schools = [
            (
                c["id"],
                int(c["capacity"]),
                c["priority"],
                _quotas_from_payload(c["quotas"]),
            )
            for c in payload["schools"]
        ]
        school_ids = [cid for cid, *_ in schools]
        if len(set(school_ids)) != len(school_ids):
            raise MalformedInstanceError("duplicate school id")
        known = {s.id for s in students}
        if len(known) != len(students):
            raise MalformedInstanceError("duplicate student id")
        for sid, prefs in payload["preferences"].items():
            if sid not in known:
                raise MalformedInstanceError(f"preferences for unknown student {sid!r}")
            if len(set(prefs)) != len(prefs):
                raise MalformedInstanceError(f"student {sid!r} repeats a school")
            unknown = set(prefs) - set(school_ids)
            if unknown:
                raise MalformedInstanceError(
                    f"student {sid!r} ranks unknown schools {sorted(unknown)}"
                )
        instances = {}
        for cid, capacity, priority, quotas in schools:
            try:
                instances[cid] = RecordInstance(
                    students, capacity, priority, payload["types"], quotas
                )
            except MalformedInstanceError as err:
                raise MalformedInstanceError(f"school {cid!r}: {err}") from err
        return instances
    except MalformedInstanceError as err:
        raise InstanceFormatError(str(err)) from err


def reference_generate_instance(
    num_students: int,
    num_types: int,
    num_ranks: int,
    seed: int,
    quota_style: str = "uniform",
    capacity: Optional[int] = None,
) -> Instance:
    """generate_instance over one record per student: each student's draws
    go straight into a frozenset, and Instance turns the records into
    columns (keeping them as its students view)."""
    if num_students < 0:
        raise ValueError("num_students must be non-negative")
    if num_types < 1:
        raise ValueError("num_types must be positive")
    if num_ranks < 1:
        raise ValueError("num_ranks must be positive")
    if quota_style not in QUOTA_STYLES:
        raise ValueError(f"unknown quota style {quota_style!r}")
    rng = random.Random(seed)
    types = [f"t{i + 1}" for i in range(num_types)]
    width = max(1, len(str(max(num_students - 1, 0))))
    students = [
        StudentRecord(
            f"s{i:0{width}d}",
            frozenset(t for t in types if rng.random() < 0.5),
        )
        for i in range(num_students)
    ]
    priority = [s.id for s in students]
    rng.shuffle(priority)
    if capacity is None:
        capacity = max(1, num_students // 2) if num_students else 0
    quotas = _draw_quotas(rng, types, num_ranks, capacity, quota_style)
    return Instance(
        students=students,
        capacity=capacity,
        priority=priority,
        types=types,
        quotas=quotas,
    )
