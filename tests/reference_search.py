"""Reference searches for differential tests of the solver.

These are the straightforward algorithms `flow` used before its searches were
batched: the alpha search materializes every candidate ratio k/|S_u| and
bisects over the sorted set, and the greedy walk makes one validity check per
remaining student. They are slow but obviously correct, so the fast versions
must reproduce them exactly. Beside them sits the two-stage bisection `flow`
ran before its alpha search descended on cuts: the grid of the largest group,
then at most one candidate per group, then a final check for the witness.
The oracle's alpha and targets by enumeration are here too, since only tests
use them, and so are four helpers the package no longer exports: the
oracle's literal greedy choice (`oracle_choice`), the cost encoding of a
whole signature (`signature_cost`), the lift of a seat matching to arc
flows (`matching_to_flow`) and the well-formedness check of a seat
matching (`check_matching`).

It also holds the references for validity checks: the lower-bounded solve
`flow` used before it answered checks on the optimum's residual graph (lower
bounds on the source arcs, eliminated through an auxiliary source and sink
with a sink->source return arc, then a min-cost max-flow on top), the
oracle's verdict for target vectors, and the checks a validity witness must
pass, shared by the differential validity tests. Beside them sits the
reroute search as `flow` ran it before its checks walked the solver's own
residual graph: a second adjacency list of admissible (arc, other end,
forward) steps, rebuilt for each network, walked with forward and backward
arithmetic. The search on the solver's edges must find the same flows and
cuts. Last, it holds the literal justified-envy scan over every
(unselected, selected) pair, the reference for the verifier's one extreme
pair per group pair, and the four axiom verdicts by enumeration
(`oracle_report`), the reference for the whole verifier.

It holds the multi-school rounds as `gda` ran them before it kept
one instance per school: every round rebuilds each pool from the raw
student list, and every unmatched student scans their list past a set of
refusing schools. Beside them sits the pool loop `gda` ran before it
carried held students as priority positions (`id_set_gda`): each pool is
the union of the held and the proposing id sets, cut from the school's
instance by id, and the rejected students are found by scanning the pool
for ids outside the choice. Both keep each round's pools and held sets
as reference data, and `replay_rounds` rebuilds the same sets from a
round trace's proposals and rejections alone. Beside the two-stage
bisection sits the window search `flow` ran before it kept the alpha
window in integers (`fraction_last_ratio`), one Fraction per window point.

It holds the reserve network as it was built for each cut before the
network was laid out over its root's group keys (`flow_reference`): one
frozen `Arc` per arc and a node per group of the cut alone, with every
node, capacity and rank cost computed from scratch for each network,
solved from zero on a residual graph of its own. The reference network
must hold the same arcs for the cut's groups, and a solve from zero must
give the same optimum and potentials on them. The searches above check
their candidates on that reference network (`flow_reference`), and
`count_checks` counts the checks of the package's searches on either
engine.

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

from oracle import (
    MaximalDiversitySet,
    OracleBudget,
    Seat,
    SeatMatching,
    balanced_count_vectors,
    group_counts,
    matching_signature,
)

from reserve_match.files import (
    INSTANCE_SCHEMA,
    MULTI_SCHEMA,
    InstanceFormatError,
    _quotas_from_payload,
    _validated,
)

import flow_reference
from flow_reference import (
    SINK,
    SOURCE,
    FlowNetwork,
    MinCostFlow,
    OptimalFlow,
    Residual,
    build_network,
    check_validity_flow,
    compute_certificate,
    flow_group_counts,
    flow_signature,
    flow_to_matching,
    min_cost_max_flow,
    rank_cost,
)
from reserve_match import flow
from reserve_match.flow import _bisect_last, _Cut, choice_flow
from reserve_match.gda import (
    MultiInstance,
    MultiMatching,
    RoundTrace,
    induced_instance,
)
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
    Signature,
    StudentRecord,
    TargetVector,
    group_label,
)
from reserve_match.verify import AxiomReport


@dataclass(frozen=True)
class FlowAssignment:
    """An integral flow without potentials, as the references build it:
    per-arc amounts plus its value and total cost. The package's readers of
    a flow (flow_signature, flow_to_matching) read only its arc flows."""

    value: int
    cost: int
    arc_flows: tuple[int, ...]


def full_candidate_crucial_vector(
    instance: Instance,
    *,
    network: Optional[FlowNetwork] = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Alpha by bisection over the full sorted set {0} | {k / |S_u|}."""
    net = network if network is not None else build_network(instance)
    groups = instance.groups()
    candidates = {Fraction(0)}
    for g in groups:
        candidates.update(Fraction(k, g.size) for k in range(1, g.size + 1))
    ordered = sorted(candidates)

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        return {g.key: math.ceil(beta * g.size) for g in groups}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(instance, targets_at(beta), network=net)
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


def bisection_crucial_vector(
    instance: Instance, net: FlowNetwork
) -> tuple[Ratio, dict[GroupKey, int], OptimalFlow]:
    """Alpha, targets and witness by the two-stage bisection: the grid
    k / m of the largest group (size m) brackets alpha in [k / m, (k + 1) / m),
    where each group has at most one candidate, and a second bisection over
    those finishes; a final check gives the witness."""
    sized = [(g.key, g.size) for g in instance.groups()]

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        num, den = beta.numerator, beta.denominator
        return {key: -(-num * size // den) for key, size in sized}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(instance, targets_at(beta), network=net)
        return witness is not None

    top = max((size for _key, size in sized), default=0)
    k = _bisect_last(0, top + 1, lambda mid: feasible(Fraction(mid, top)))
    # alpha lies in [k / top, (k + 1) / top); collect each group's smallest
    # grid point j / |S_u| at or above k / top that falls inside it
    window = set()
    for _key, size in sized:
        j = -(-k * size // top)
        if j * top < (k + 1) * size:
            window.add(Fraction(j, size))
    ordered = sorted(window) or [Fraction(0)]
    alpha = ordered[_bisect_last(0, len(ordered), lambda i: feasible(ordered[i]))]
    targets = targets_at(alpha)
    witness = check_validity_flow(instance, targets, network=net)
    if witness is None:
        raise InternalInvariantError("zero-target validity failed")
    return alpha, targets, witness


def fraction_last_ratio(sizes: list[int], bound: int) -> Fraction:
    """Largest beta in {0} | {j / s : s in sizes, 0 < j <= s} with
    sum(ceil(beta * s) for s in sizes) <= bound, for a bound >= 0.

    The sum grows with beta, so bisecting the grid k / m of the largest
    size m brackets the answer in [k / m, (k + 1) / m). A size of at most m
    has at most one grid point in that window, so a second bisection over
    those points finishes. Only sums are evaluated, no validity check.
    """
    top = max(sizes, default=0)
    if not top:
        return Fraction(0)
    total = sum(sizes)

    def fits(num: int, den: int) -> bool:
        return sum(-(-num * size // den) for size in sizes) <= bound

    # the sum lies in [beta * total, beta * total + len(sizes)), so it fits
    # at every grid point up to (bound + 1 - len(sizes)) / total and at
    # none past bound / total: only the points between are bisected
    low = min(max(0, (bound + 1 - len(sizes)) * top // total), top)
    high = min(bound * top // total, top)
    k = _bisect_last(low, high + 1, lambda mid: fits(mid, top))
    window = set()
    for size in sizes:
        j = -(-k * size // top)
        if j * top < (k + 1) * size:
            window.add(Fraction(j, size))
    ordered = sorted(window)  # starts at k / top, from the largest size
    last = _bisect_last(
        0, len(ordered), lambda i: fits(ordered[i].numerator, ordered[i].denominator)
    )
    return ordered[last]


def oracle_max_min_ratio(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Exact max-min selection ratio over the rank-maximal set, with targets.

    Targets are the ceilings ceil(alpha * |S_u|): the componentwise floor of
    the count vectors that realize alpha, hence the bounds every balanced
    selection must meet.
    """
    alpha, _mset, _balanced_vectors = balanced_count_vectors(instance, budget)
    crucial = {g.key: math.ceil(alpha * g.size) for g in instance.groups()}
    return alpha, crucial


def count_checks(monkeypatch: Any) -> list[None]:
    """Record one entry per check the package's searches make from now on,
    on the type lattice or on a reference network put in its place."""
    calls: list[None] = []
    for engine in (flow._TypeLattice, flow_reference.FlowNetwork):
        original = engine.check

        def counted(self: Any, targets: TargetVector, original=original) -> bool:
            calls.append(None)
            return original(self, targets)

        monkeypatch.setattr(engine, "check", counted)
    return calls


def sequential_choice(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> ChoiceResult:
    """Balanced selection with one validity check per remaining student."""
    net = build_network(instance)
    groups = instance.groups()
    if delta_star is None:
        alpha, delta_star = full_candidate_crucial_vector(instance, network=net)
    targets = {g.key: int(delta_star.get(g.key, 0)) for g in groups}
    if check_validity_flow(instance, targets, network=net) is None:
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
        if check_validity_flow(instance, trial, network=net) is not None:
            counts = trial
            selected.add(sid)
        else:
            dead.add((key, attempt))

    witness = check_validity_flow(instance, counts, network=net)
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
        for counts in (dict(zip(mset.group_keys, v)) for v in mset.count_vectors)
    )


def oracle_count_validity(
    mset: MaximalDiversitySet,
) -> Callable[[dict[GroupKey, int]], bool]:
    """Exact-count validity by enumeration: the counts are a rank-maximal vector."""
    vectors = [dict(zip(mset.group_keys, v)) for v in mset.count_vectors]
    return lambda counts: counts in vectors


def oracle_choice(
    instance: Instance, budget: Optional[OracleBudget] = None
) -> frozenset[str]:
    """The greedy maximum balanced selection, answered by enumeration.

    Walks students in descending priority and accepts s whenever some
    matching with the best signature and the max-min ratio can match all of
    the tentative selection. Because accepted students always form priority
    prefixes inside their groups, the existence test reduces to a
    componentwise comparison against the balanced count vectors.
    """
    _alpha, _mset, best_vectors = balanced_count_vectors(instance, budget)
    groups = instance.groups()
    index = {g.key: i for i, g in enumerate(groups)}
    counts = [0] * len(groups)
    selected: set[str] = set()
    for sid in instance.priority:
        gi = index[instance.group_of(sid)]
        counts[gi] += 1
        if any(
            all(c >= have for c, have in zip(vector, counts))
            for vector in best_vectors
        ):
            selected.add(sid)
        else:
            counts[gi] -= 1
    expected = min(len(instance.columns), instance.capacity)
    if len(selected) != expected:
        raise InternalInvariantError("oracle selection is wasteful")
    return frozenset(selected)


def signature_cost(signature: Signature, capacity: int) -> int:
    """Encoded cost of a signature: sum of per-rank counts times rank_cost."""
    r = len(signature)
    return sum(
        count * rank_cost(i, capacity, r)
        for i, count in enumerate(signature, start=1)
    )


def matching_to_flow(
    instance: Instance,
    matching: SeatMatching,
    *,
    network: Optional[FlowNetwork] = None,
) -> FlowAssignment:
    """Lift a student-to-seat matching to arc flows on the reserve network."""
    net = network if network is not None else build_network(instance)
    flows = [0] * len(net.tails)
    seen: set[Seat] = set()
    for sid, seat in matching.items():
        key = instance.group_of(sid)
        if seat in seen:
            raise ValueError(f"seat {seat} assigned twice")
        seen.add(seat)
        if seat.type != GENERAL_TYPE and seat.type not in key:
            raise ValueError(f"student {sid!r} lacks type {seat.type!r}")
        if (seat.type, seat.rank) not in net.rank_arcs:
            raise ValueError(f"no seat class {seat.type}^{seat.rank}")
        class_cap = net.capacities[net.rank_arcs[(seat.type, seat.rank)]]
        if not 1 <= seat.index <= class_cap:
            raise ValueError(
                f"seat index {seat.index} outside class {seat.type}^{seat.rank}"
            )
        flows[net.group_arcs[key]] += 1
        flows[net.group_type_arcs[(key, seat.type)]] += 1
        flows[net.rank_arcs[(seat.type, seat.rank)]] += 1
        # the class->hub arc follows its type->class arc
        flows[net.rank_arcs[(seat.type, seat.rank)] + 1] += 1
        flows[net.q_sink_arc] += 1
    if any(f > cap for f, cap in zip(flows, net.capacities)):
        raise ValueError("matching overfills an arc capacity")
    cost = sum(f * c for f, c in zip(flows, net.costs))
    return FlowAssignment(value=len(matching), cost=cost, arc_flows=tuple(flows))


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


def oracle_report(
    instance: Instance,
    selected: Collection[str],
    budget: Optional[OracleBudget] = None,
) -> AxiomReport:
    """The four axiom verdicts by enumeration, the reference for `verify`.

    A selection is non-wasteful at size min(|S|, q), maximally diverse when
    its counts are a rank-maximal count vector, balanced when that vector
    also attains alpha, and envy-free when the literal scan finds no pair.
    """
    alpha, mset, balanced_vectors = balanced_count_vectors(instance, budget)
    valid = oracle_count_validity(mset)
    counts = group_counts(instance, selected)
    maximal = valid(counts)
    witness = literal_envy_witness(instance, selected, alpha, valid)
    full = min(len(instance.columns), instance.capacity)
    return AxiomReport(
        non_wasteful=len(set(selected)) == full,
        maximal_diversity=maximal,
        balanced=maximal
        and tuple(counts[key] for key in mset.group_keys) in balanced_vectors,
        justified_envy_free=witness is None,
        alpha=alpha,
        envy_witness=witness,
    )


def check_matching(instance: Instance, matching: SeatMatching) -> None:
    """Raise ValueError unless the matching is well-formed for the instance.

    Checks seat uniqueness, type compatibility, rank/index bounds against the
    quota for the seat's class, and the overall size cap q.
    """
    if len(matching) > instance.capacity:
        raise ValueError("matching exceeds capacity")
    seen: set[Seat] = set()
    for sid, seat in matching.items():
        held = instance.group_of(sid)
        if seat in seen:
            raise ValueError(f"seat {seat} assigned twice")
        seen.add(seat)
        if seat.type == GENERAL_TYPE:
            if seat.rank != instance.max_rank:
                raise ValueError("general seats live at the largest rank")
            cap = instance.capacity
        else:
            if seat.type not in held:
                raise ValueError(f"student {sid!r} lacks type {seat.type!r}")
            if not 1 <= seat.rank <= instance.max_rank:
                raise ValueError("seat rank out of range")
            cap = instance.quotas.get((seat.type, seat.rank), 0)
        if not 1 <= seat.index <= cap:
            raise ValueError(
                f"seat index {seat.index} outside quota for {seat.type}^{seat.rank}"
            )


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
    extra = [(SINK, SOURCE, sum(caps) + 1)]
    required = 0
    for v in range(n):
        if excess[v] > 0:
            extra.append((aux_source, v, excess[v]))
            required += excess[v]
        elif excess[v] < 0:
            extra.append((v, aux_sink, -excess[v]))
    residual = Residual(
        n + 2,
        tails + [u for u, _v, _cap in extra],
        heads + [v for _u, v, _cap in extra],
        costs + [0] * len(extra),
    )
    solver = MinCostFlow(
        residual,
        [cap - low for cap, low in zip(caps, lower)] + [cap for *_ends, cap in extra],
    )
    loop = 2 * len(tails)
    forced, _ = solver.run(aux_source, aux_sink)
    if forced != required:
        return None
    solver.cap[loop] = 0
    solver.cap[loop ^ 1] = 0
    solver.run(SOURCE, SINK)
    flows = tuple(f + low for f, low in zip(solver.arc_flows(), lower))
    value = sum(f for f, u in zip(flows, tails) if u == SOURCE)
    cost = sum(f * c for f, c in zip(flows, costs))
    return FlowAssignment(value=value, cost=cost, arc_flows=flows)


def lower_bounded_validity(
    instance: Instance, targets: TargetVector
) -> Optional[FlowAssignment]:
    """Validity by a full lower-bounded solve: the witness if the
    bounded optimum still has the unconstrained value F* and cost C*."""
    net = build_network(instance)
    cert = compute_certificate(net)  # f*: its value F* and cost C*
    lower = lower_bounds(net, targets)
    if sum(targets.values()) > cert.value:
        return None
    bounded = lower_bounded_flow(net, lower)
    if bounded is None:
        return None
    if bounded.value != cert.value or bounded.cost != cert.cost:
        return None
    return bounded


def assert_flow_witness(
    instance: Instance,
    network: FlowNetwork,
    cert: OptimalFlow,
    witness: OptimalFlow,
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
    value = balance[SINK]
    assert balance[SOURCE] == -value
    assert all(b == 0 for v, b in enumerate(balance) if v not in (SOURCE, SINK))
    cost = sum(f * c for f, c in zip(flows, network.costs))
    assert (witness.value, witness.cost) == (value, cost)
    assert (value, cost) == (cert.value, cert.cost)
    counts = flow_group_counts(network, witness)
    for key, want in targets.items():
        assert counts[key] >= want
    flow_to_matching(instance, witness, network=network)


def free_groups(network: FlowNetwork) -> dict[GroupKey, bool]:
    """Whether each group's source arc is admissible (reduced cost 0) under
    the potentials of the network's optimum: only a free group's flow may
    move in a reroute."""
    pot = compute_certificate(network).potentials
    return {
        key: pot[SOURCE] == pot[network.heads[e]]
        for key, e in network.group_arcs.items()
    }


def steps_reroute(
    network: FlowNetwork, best: OptimalFlow, targets: TargetVector
) -> FlowAssignment | _Cut:
    """The optimum's reroute search over its own list of admissible steps.

    `steps[v]` lists (arc, other end, forward) for every arc of reduced
    cost 0 under best's potentials at node v that touches neither the
    source nor the sink, in arc order. Breadth-first augmenting paths from
    the groups below their targets to the free groups above them, each
    closed through the two groups' source arcs, lift every group to its
    target or leave a _Cut of the free groups the last search reached.
    """
    pot = best.potentials
    steps: list[list[tuple[int, int, bool]]] = [[] for _ in range(network.node_count)]
    arcs = zip(network.tails, network.heads, network.costs)
    for e, (u, v, c) in enumerate(arcs):
        if u != SOURCE and v != SINK and c + pot[u] - pot[v] == 0:
            steps[u].append((e, v, True))
            steps[v].append((e, u, False))
    groups = []
    group_arc = {}
    for key, e in network.group_arcs.items():
        node = network.heads[e]
        groups.append((key, node, best.arc_flows[e], pot[SOURCE] == pot[node]))
        group_arc[node] = e
    need: dict[int, int] = {}
    spare: dict[int, int] = {}
    for key, node, has, free in groups:
        want = targets.get(key, 0)
        if want > has:
            if not free:
                return _Cut((key,), has)
            need[node] = want - has
        elif want < has and free:
            spare[node] = has - want
    if not need:
        return best
    cap = network.capacities
    flows = list(best.arc_flows)
    while need:
        prev: dict[int, Optional[tuple[int, bool, int]]] = dict.fromkeys(need)
        queue = list(need)
        for v in queue:
            if v in spare:
                break
            for e, w, forward in steps[v]:
                if w not in prev and (cap[e] - flows[e] if forward else flows[e]):
                    prev[w] = (e, forward, v)
                    queue.append(w)
        else:
            reached = [
                (key, node) for key, node, _has, free in groups if free and node in prev
            ]
            return _Cut(
                tuple(key for key, _node in reached),
                sum(flows[group_arc[node]] for _key, node in reached),
            )
        end = v
        amount = spare[end]
        path = []
        step = prev[v]
        while step is not None:
            e, forward, v = step
            path.append((e, forward))
            amount = min(amount, cap[e] - flows[e] if forward else flows[e])
            step = prev[v]
        amount = min(amount, need[v])
        for e, forward in path:
            flows[e] += amount if forward else -amount
        flows[group_arc[v]] += amount
        flows[group_arc[end]] -= amount
        need[v] -= amount
        if not need[v]:
            del need[v]
        spare[end] -= amount
        if not spare[end]:
            del spare[end]
    value = sum(flows[e] for e in group_arc.values())
    cost = sum(f * c for f, c in zip(flows, network.costs))
    return FlowAssignment(value=value, cost=cost, arc_flows=tuple(flows))


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


def _reference_map(
    network: FlowNetwork, ref: ArcNetwork
) -> tuple[dict[int, int], dict[int, int]]:
    """The reference's nodes and arcs as the network numbers them: nodes up
    to the hub keep their numbers, each group's node and arcs are found by
    its key."""
    nodes = {v: v for v in range(ref.node_count - len(ref.group_arcs))}
    arcs = {}
    for name in ("group_arcs", "group_type_arcs", "rank_arcs"):
        mine = getattr(network, name)
        for key, a in getattr(ref, name).items():
            arcs[a] = mine[key]
    # the network keeps no map of its class->hub arcs: each follows its
    # type->class arc
    for key, a in ref.seat_exit_arcs.items():
        arcs[a] = network.rank_arcs[key] + 1
    arcs[ref.q_sink_arc] = network.q_sink_arc
    for key, a in ref.group_arcs.items():
        nodes[ref.arcs[a].head] = network.heads[network.group_arcs[key]]
    return nodes, arcs


def assert_same_network(network: FlowNetwork, instance: Instance) -> None:
    """The network holds the Arc reference's arcs, in the same order and
    with the same ends, capacities and costs, with its groups' nodes in the
    same order; every other arc is a group arc of capacity 0."""
    ref = ArcNetwork(instance)
    assert list(network.group_arcs) == list(ref.group_arcs)
    assert (SOURCE, SINK) == (ref.source, ref.sink)
    assert network.max_rank == ref.max_rank
    nodes, arcs = _reference_map(network, ref)
    assert sorted(arcs.values()) == [arcs[a] for a in range(len(ref.arcs))]
    assert sorted(nodes.values()) == [nodes[v] for v in range(ref.node_count)]
    for a, arc in enumerate(ref.arcs):
        e = arcs[a]
        ends = (network.tails[e], network.heads[e])
        assert ends == (nodes[arc.tail], nodes[arc.head])
        assert (network.capacities[e], network.costs[e]) == (arc.capacity, arc.cost)
    mapped = set(arcs.values())
    others = [e for e in range(len(network.tails)) if e not in mapped]
    assert all(network.capacities[e] == 0 for e in others)
    assert all(network.costs[e] == 0 for e in others)
    # the other groups' nodes come after the hub, as every group's does
    hub = ref.node_count - len(ref.group_arcs) - 1
    kept = set(nodes.values())
    assert all(v > hub for v in range(network.node_count) if v not in kept)


def reference_optimum(ref: ArcNetwork) -> tuple[tuple[int, ...], list[int]]:
    """Arc flows and potentials of a solve from zero on the reference's own
    arcs and residual graph."""
    solver = MinCostFlow(
        Residual(
            ref.node_count,
            [a.tail for a in ref.arcs],
            [a.head for a in ref.arcs],
            [a.cost for a in ref.arcs],
        ),
        [a.capacity for a in ref.arcs],
    )
    solver.run(ref.source, ref.sink)
    return solver.arc_flows(), solver.potential


def assert_same_cold_optimum(network: FlowNetwork, instance: Instance) -> None:
    """A solve from zero on the network gives the reference's optimum on
    every group, group->type and rank arc, and its potentials on every
    node of the reference."""
    best = min_cost_max_flow(network)
    ref = ArcNetwork(instance)
    flows, potentials = reference_optimum(ref)
    nodes, arcs = _reference_map(network, ref)
    for name in ("group_arcs", "group_type_arcs", "rank_arcs"):
        for a in getattr(ref, name).values():
            assert best.arc_flows[arcs[a]] == flows[a]
    for v, pot in enumerate(potentials):
        assert best.potentials[nodes[v]] == pot


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


@dataclass(frozen=True)
class RoundSets:
    """One round's pools (choosing schools) and held sets after it."""

    pools: dict[str, frozenset[str]]
    held: dict[str, frozenset[str]]


def replay_rounds(rounds: Sequence[RoundTrace]) -> list[RoundSets]:
    """Every round's pools and held sets, rebuilt from its proposals and
    rejections alone. The held sets cover each school that has chosen so
    far; the others hold nobody."""
    held: dict[str, frozenset[str]] = {}
    replayed = []
    for rt in rounds:
        pools = {
            cid: held.get(cid, frozenset()) | set(proposers)
            for cid, proposers in rt.proposals.items()
        }
        for cid, pool in pools.items():
            held[cid] = pool - set(rt.rejected[cid])
        replayed.append(RoundSets(pools=pools, held=dict(held)))
    return replayed


def rescanning_gda(
    multi: MultiInstance, sets: Optional[list[RoundSets]] = None
) -> MultiMatching:
    """Deferred acceptance that rescans every student each round.

    Each round's pools and every school's held set after it are appended
    to sets when it is given, as reference data for replay_rounds.
    """
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
        pools: dict[str, frozenset[str]] = {}
        rejected: dict[str, tuple[str, ...]] = {}
        for cid in order:
            if cid not in proposals:
                continue
            pool = held[cid] | set(proposals[cid])
            sub = rebuilt_induced_instance(multi, cid, pool)
            chosen = choice_flow(sub).selected
            pools[cid] = pool
            rejected[cid] = tuple(sid for sid in sub.priority if sid not in chosen)
            for sid in rejected[cid]:
                refused[sid].add(cid)
            held[cid] = chosen
        if sets is not None:
            sets.append(RoundSets(pools=pools, held=dict(held)))
        rounds.append(
            RoundTrace(
                number=len(rounds) + 1,
                proposals={
                    cid: tuple(sorted(proposals[cid])) for cid in sorted(proposals)
                },
                pools={cid: len(pool) for cid, pool in pools.items()},
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


def id_set_gda(
    multi: MultiInstance, sets: Optional[list[RoundSets]] = None
) -> MultiMatching:
    """Deferred acceptance whose pools are id sets, cut from each school's
    instance by id every round.

    Each round's pools and every school's held set after it are appended
    to sets when it is given, as reference data for replay_rounds.
    """
    held: dict[str, frozenset[str]] = {c.id: frozenset() for c in multi.schools}
    # a student's refusals are a prefix of their list, so the count says where
    # they propose next; only last round's rejected students propose again
    refusals = dict.fromkeys(multi.student_ids, 0)
    order = sorted(held)
    rounds: list[RoundTrace] = []
    limit = len(multi.columns) * len(multi.schools) + 1
    movers = list(multi.columns.ids)
    while True:
        proposals: dict[str, list[str]] = {}
        for sid in movers:
            prefs = multi.preference_list(sid)
            if refusals[sid] < len(prefs):
                proposals.setdefault(prefs[refusals[sid]], []).append(sid)
        if not proposals:
            break
        if len(rounds) >= limit:
            raise InternalInvariantError("proposal rounds exceeded |S| * |C|")
        pools: dict[str, frozenset[str]] = {}
        rejected: dict[str, tuple[str, ...]] = {}
        for cid in order:
            if cid not in proposals:
                continue
            pool = held[cid] | set(proposals[cid])
            sub = induced_instance(multi, cid, pool)
            chosen = flow.choice_flow(sub).selected
            pools[cid] = pool
            rejected[cid] = tuple(sid for sid in sub.priority if sid not in chosen)
            for sid in rejected[cid]:
                refusals[sid] += 1
            held[cid] = chosen
        if sets is not None:
            sets.append(RoundSets(pools=pools, held=dict(held)))
        rounds.append(
            RoundTrace(
                number=len(rounds) + 1,
                proposals={
                    cid: tuple(sorted(proposals[cid])) for cid in sorted(proposals)
                },
                pools={cid: len(pool) for cid, pool in pools.items()},
                rejected=rejected,
            )
        )
        movers = [sid for out in rejected.values() for sid in out]
    assignment: dict[str, Optional[str]] = dict.fromkeys(multi.columns.ids)
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
