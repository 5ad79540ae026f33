"""Flow-network backend: exact min-cost max-flow over the four-layer reserve
network, validity checking, crucial-vector search and the choice function.

The network has one node per group, per type (including the general type) and
per (type, rank) seat class, plus a capacity node. Only type->class arcs carry
cost; the cost of rank i is chosen so that minimizing total cost over flows of
a fixed value maximizes the per-rank signature lexicographically.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .model import (
    GENERAL_TYPE,
    ChoiceResult,
    GroupKey,
    Instance,
    InternalInvariantError,
    Ratio,
    Seat,
    SeatMatching,
    Signature,
    TargetVector,
    group_label,
    matching_group_counts,
    matching_signature,
)


def rank_cost(rank: int, capacity: int, max_rank: int) -> int:
    """Cost of sending one unit through a rank-`rank` seat class.

    Geometric in the rank: (q+1)^(r-1) - (q+1)^(r-i). Rank 1 costs 0 and each
    later rank is more expensive than q units of the next-better rank, so with
    every per-rank count at most q, total cost orders signatures exactly like
    lexicographic comparison. The raw rank number would not (three ranks
    suffice for a counterexample), hence the encoding.
    """
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank {rank} outside 1..{max_rank}")
    base = capacity + 1
    return base ** (max_rank - 1) - base ** (max_rank - rank)


def signature_cost(signature: Signature, capacity: int) -> int:
    """Encoded cost of a signature: sum of per-rank counts times rank_cost."""
    r = len(signature)
    return sum(
        count * rank_cost(i, capacity, r)
        for i, count in enumerate(signature, start=1)
    )


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: int
    cost: int
    lower: int = 0


@dataclass(frozen=True)
class FlowAssignment:
    """An integral flow: per-arc amounts plus its value and total cost."""

    value: int
    cost: int
    arc_flows: tuple[int, ...]


@dataclass(frozen=True)
class OptimalityCertificate:
    """Value and cost of a min-cost max-flow on the unconstrained network."""

    max_value: int
    min_cost: int


class FlowNetwork:
    """The four-layer reserve network for one instance.

    Arc order is deterministic: source->group and group->type arcs per group
    in lexicographic group order, then type->class and class->Q arcs per type
    and rank, then Q->sink. Lower bounds (when targets are given) sit on the
    source->group arcs only. Zero-capacity arcs are kept so the structure
    mirrors the construction exactly.
    """

    def __init__(
        self, instance: Instance, targets: Optional[TargetVector] = None
    ) -> None:
        self.instance = instance
        self.max_rank = instance.max_rank
        groups = instance.groups()
        bounds = dict(targets or {})
        unknown = set(bounds) - {g.key for g in groups}
        if unknown:
            raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
        for key, value in bounds.items():
            if value < 0:
                raise ValueError(f"negative target for group {group_label(key)}")

        self.node_names = ["source", "sink"]
        self.source = 0
        self.sink = 1

        def add_node(name: str) -> int:
            self.node_names.append(name)
            return len(self.node_names) - 1

        self.arcs: list[Arc] = []
        self.group_arcs: dict[GroupKey, int] = {}
        self.group_type_arcs: dict[tuple[GroupKey, str], int] = {}
        self.rank_arcs: dict[tuple[str, int], int] = {}
        self.seat_exit_arcs: dict[tuple[str, int], int] = {}

        def add_arc(tail: int, head: int, cap: int, cost: int, lower: int = 0) -> int:
            if lower > cap:
                raise ValueError("lower bound exceeds capacity")
            self.arcs.append(Arc(tail, head, cap, cost, lower))
            return len(self.arcs) - 1

        all_types = sorted(instance.types) + [GENERAL_TYPE]
        type_node = {t: add_node(f"type:{t}") for t in all_types}
        class_node = {
            (t, j): add_node(f"class:{t}^{j}")
            for t in all_types
            for j in range(1, self.max_rank + 1)
        }
        hub = add_node("Q")

        for g in groups:
            u = add_node(f"group:{group_label(g.key)}")
            self.group_arcs[g.key] = add_arc(
                self.source, u, g.size, 0, bounds.get(g.key, 0)
            )
            for t in list(g.key) + [GENERAL_TYPE]:
                self.group_type_arcs[(g.key, t)] = add_arc(u, type_node[t], g.size, 0)
        for t in all_types:
            for j in range(1, self.max_rank + 1):
                if t == GENERAL_TYPE:
                    cap = instance.capacity if j == self.max_rank else 0
                else:
                    cap = instance.quotas.get((t, j), 0)
                cost = rank_cost(j, instance.capacity, self.max_rank)
                self.rank_arcs[(t, j)] = add_arc(type_node[t], class_node[(t, j)], cap, cost)
                self.seat_exit_arcs[(t, j)] = add_arc(class_node[(t, j)], hub, cap, 0)
        self.q_sink_arc = add_arc(hub, self.sink, instance.capacity, 0)

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    def with_targets(self, targets: TargetVector) -> "FlowNetwork":
        """A fresh copy of this network with lower bounds from targets."""
        return FlowNetwork(self.instance, targets)


def build_network(instance: Instance) -> FlowNetwork:
    return FlowNetwork(instance)


class _MinCostFlow:
    """Successive shortest paths with Johnson potentials on integer data.

    All original costs are non-negative, so potentials start at zero. After
    each Dijkstra pass the potential update is capped at the target distance,
    which keeps reduced costs non-negative for every arc that still has
    residual capacity, including across phases with different endpoints.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.potential = [0] * n

    def add(self, u: int, v: int, cap: int, cost: int) -> int:
        e = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((cap, 0))
        self.cost.extend((cost, -cost))
        self.head[u].append(e)
        self.head[v].append(e + 1)
        return e

    def flow_on(self, e: int) -> int:
        return self.cap[e ^ 1]

    def _augment(self, source: int, target: int) -> Optional[tuple[int, int]]:
        """One shortest-path augmentation; returns (amount, unit cost)."""
        dist: list[Optional[int]] = [None] * self.n
        prev_arc = [-1] * self.n
        done = [False] * self.n
        pot = self.potential
        dist[source] = 0
        heap: list[tuple[int, int]] = [(0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            if v == target:
                break
            for e in self.head[v]:
                if self.cap[e] <= 0:
                    continue
                w = self.to[e]
                if done[w]:
                    continue
                nd = d + self.cost[e] + pot[v] - pot[w]
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    prev_arc[w] = e
                    heapq.heappush(heap, (nd, w))
        if not done[target]:
            return None
        cut = dist[target]
        for v in range(self.n):
            dv = dist[v]
            pot[v] += cut if dv is None or dv > cut else dv
        amount: Optional[int] = None
        unit_cost = 0
        v = target
        while v != source:
            e = prev_arc[v]
            amount = self.cap[e] if amount is None else min(amount, self.cap[e])
            unit_cost += self.cost[e]
            v = self.to[e ^ 1]
        v = target
        while v != source:
            e = prev_arc[v]
            self.cap[e] -= amount
            self.cap[e ^ 1] += amount
            v = self.to[e ^ 1]
        return amount, unit_cost

    def run(self, source: int, target: int) -> tuple[int, int]:
        """Augment until target is unreachable; returns (value, cost) added."""
        value = 0
        cost = 0
        while True:
            step = self._augment(source, target)
            if step is None:
                return value, cost
            value += step[0]
            cost += step[0] * step[1]


def min_cost_max_flow(
    network: FlowNetwork, respect_lower_bounds: bool = False
) -> Optional[FlowAssignment]:
    """Integral min-cost max-flow; None iff lower bounds are infeasible.

    With lower bounds active, uses the classical elimination transform:
    subtract bounds from capacities, route the forced imbalance through an
    auxiliary source/sink pair (with a sink->source return arc), then
    continue augmenting source->sink for the maximum value.
    """
    arcs = network.arcs
    n = network.node_count
    bounded = respect_lower_bounds and any(a.lower for a in arcs)
    if not bounded:
        solver = _MinCostFlow(n)
        ids = [solver.add(a.tail, a.head, a.capacity, a.cost) for a in arcs]
        value, cost = solver.run(network.source, network.sink)
        flows = tuple(solver.flow_on(e) for e in ids)
        return FlowAssignment(value=value, cost=cost, arc_flows=flows)

    if any(a.lower > a.capacity for a in arcs):
        return None
    solver = _MinCostFlow(n + 2)
    aux_source, aux_sink = n, n + 1
    excess = [0] * n
    ids = []
    for a in arcs:
        ids.append(solver.add(a.tail, a.head, a.capacity - a.lower, a.cost))
        excess[a.head] += a.lower
        excess[a.tail] -= a.lower
    big = sum(a.capacity for a in arcs) + 1
    loop = solver.add(network.sink, network.source, big, 0)
    required = 0
    for v in range(n):
        if excess[v] > 0:
            solver.add(aux_source, v, excess[v], 0)
            required += excess[v]
        elif excess[v] < 0:
            solver.add(v, aux_sink, -excess[v], 0)
    forced, _ = solver.run(aux_source, aux_sink)
    if forced != required:
        return None
    solver.cap[loop] = 0
    solver.cap[loop ^ 1] = 0
    solver.run(network.source, network.sink)
    flows = tuple(solver.flow_on(e) + a.lower for e, a in zip(ids, arcs))
    value = sum(f for f, a in zip(flows, arcs) if a.tail == network.source)
    value -= sum(f for f, a in zip(flows, arcs) if a.head == network.source)
    cost = sum(f * a.cost for f, a in zip(flows, arcs))
    return FlowAssignment(value=value, cost=cost, arc_flows=flows)


def compute_certificate(network: FlowNetwork) -> OptimalityCertificate:
    """(F*, C*) of the unconstrained network; the maximal-diversity benchmark."""
    best = min_cost_max_flow(network)
    instance = network.instance
    expected = min(len(instance.students), instance.capacity)
    if best.value != expected:
        raise InternalInvariantError(
            f"max flow {best.value} != min(|S|, q) = {expected}"
        )
    return OptimalityCertificate(max_value=best.value, min_cost=best.cost)


def flow_signature(network: FlowNetwork, flow: FlowAssignment) -> Signature:
    """Per-rank unit counts of a flow, read off the type->class arcs."""
    sig = [0] * network.max_rank
    for (_t, j), e in network.rank_arcs.items():
        sig[j - 1] += flow.arc_flows[e]
    return tuple(sig)


def flow_group_counts(
    network: FlowNetwork, flow: FlowAssignment
) -> dict[GroupKey, int]:
    return {key: flow.arc_flows[e] for key, e in network.group_arcs.items()}


def check_validity_flow(
    instance: Instance,
    targets: TargetVector,
    *,
    network: Optional[FlowNetwork] = None,
    cert: Optional[OptimalityCertificate] = None,
) -> Optional[FlowAssignment]:
    """Witness flow if some maximal-diversity flow meets the targets, else None.

    Validity means the lower-bounded solve is feasible and still attains the
    unconstrained optimum (value F* and cost C*); feasibility alone would not
    preserve maximal diversity.
    """
    net = network if network is not None else build_network(instance)
    sizes = {g.key: g.size for g in instance.groups()}
    unknown = set(targets) - set(sizes)
    if unknown:
        raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
    if any(v < 0 for v in targets.values()):
        raise ValueError("negative target")
    if cert is None:
        cert = compute_certificate(net)
    if any(targets[key] > sizes[key] for key in targets):
        return None
    if sum(targets.values()) > cert.max_value:
        return None
    bounded = min_cost_max_flow(net.with_targets(targets), respect_lower_bounds=True)
    if bounded is None:
        return None
    if bounded.value != cert.max_value or bounded.cost != cert.min_cost:
        return None
    return bounded


def _bisect_last(good: int, bad: int, holds: Callable[[int], bool]) -> int:
    """Largest p in [good, bad) with holds(p), for a predicate that holds at
    good, fails at bad (never evaluated there) and is monotone in between.
    Makes ceil(log2(bad - good)) calls."""
    while bad - good > 1:
        mid = (good + bad) // 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def _gallop_last(limit: int, holds: Callable[[int], bool]) -> int:
    """Largest p in [0, limit] with holds(p), for a predicate that holds at 0
    and is monotone: probe 1, 2, 4, ... (capped at limit), then bisect the
    last doubling step. Makes at most 2 * ceil(log2(limit + 1)) + 1 calls."""
    good, bad = 0, limit + 1
    while good < limit and bad > limit:
        probe = min(2 * good or 1, limit)
        if holds(probe):
            good = probe
        else:
            bad = probe
    return _bisect_last(good, bad, holds)


def _candidate_groups(
    instance: Instance, targets: dict[GroupKey, int]
) -> list[GroupKey]:
    """Group of every student past its group's target, in priority order."""
    rank = instance.priority_index
    slots: list[Optional[GroupKey]] = [None] * len(rank)
    for g in instance.groups():
        for sid in g.members[targets[g.key] :]:
            slots[rank[sid]] = g.key
    return [key for key in slots if key is not None]


def crucial_vector(
    instance: Instance,
    *,
    network: Optional[FlowNetwork] = None,
    cert: Optional[OptimalityCertificate] = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Maximum balanced ratio alpha and its per-group targets.

    The targets are the pointwise ceilings ceil(alpha * |S_u|). Ceilings make
    validity at a ratio beta equivalent to beta <= alpha (validity is
    downward closed and the targets grow with beta), and alpha is the largest
    feasible point of the candidate set {0} | {k / |S_u|}. The search never
    builds that set. It first bisects over the grid k / m of the largest
    group (size m), which brackets alpha in [k / m, (k + 1) / m). A group of
    size at most m has at most one grid point in a half-open interval of
    length 1 / m, so a second bisection over those few points (at most one
    per group) finishes the search: ceil(log2(m + 1)) + ceil(log2(G)) checks
    plus a final invariant check, for G groups. The resulting vector is the
    tightest one every balanced selection must meet.
    """
    net = network if network is not None else build_network(instance)
    if cert is None:
        cert = compute_certificate(net)
    alpha, targets, _witness = _crucial_search(instance, net, cert)
    return alpha, targets


def _crucial_search(
    instance: Instance, net: FlowNetwork, cert: OptimalityCertificate
) -> tuple[Ratio, dict[GroupKey, int], FlowAssignment]:
    """crucial_vector's alpha and targets, plus the witness flow of its final
    invariant check: a maximal-diversity flow meeting exactly those targets."""
    groups = instance.groups()

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        return {g.key: math.ceil(beta * g.size) for g in groups}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(
            instance, targets_at(beta), network=net, cert=cert
        )
        return witness is not None

    top = max((g.size for g in groups), default=0)
    k = _bisect_last(0, top + 1, lambda mid: feasible(Fraction(mid, top)))
    # alpha lies in [k / top, (k + 1) / top); collect each group's smallest
    # grid point j / |S_u| at or above k / top that falls inside it
    window = set()
    for g in groups:
        j = -(-k * g.size // top)
        if j * top < (k + 1) * g.size:
            window.add(Fraction(j, g.size))
    ordered = sorted(window) or [Fraction(0)]
    alpha = ordered[_bisect_last(0, len(ordered), lambda i: feasible(ordered[i]))]
    targets = targets_at(alpha)
    witness = check_validity_flow(instance, targets, network=net, cert=cert)
    if witness is None:
        raise InternalInvariantError("zero-target validity failed")
    return alpha, targets, witness


def choice_flow(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
) -> ChoiceResult:
    """Maximum balanced selection via batched lower-bounded solves.

    delta_star must be the instance's crucial vector (recomputed when omitted;
    validity of the supplied vector is checked, full optimality is the
    caller's contract). Each group is seeded with its top delta students; the
    rest are then offered in priority order, and one is admitted whenever a
    maximal-diversity flow exists with its group's bound raised by one.

    That walk is computed without one check per student. Validity is
    downward closed in the bounds, so once a group's next member is rejected
    the group is dead: its count never moves again and every later attempt
    faces componentwise larger bounds. The walk therefore admits the longest
    valid prefix of the remaining candidates, drops the group of the first
    candidate past it, and repeats on what follows. Each prefix is found by
    galloping (1, 2, 4, ... candidates, capped at the seats left below F*)
    and then bisecting, with prefix counts read by bisect from each group's
    candidate positions. That is at most G + 1 rounds of O(log n) checks for
    G groups and n remaining students, and no checks once the targets fill
    the certificate's flow value. The signature is read from the witness
    flow of the last check that held, which meets exactly the final counts,
    so no check is repeated.
    """
    net = build_network(instance)
    cert = compute_certificate(net)
    groups = instance.groups()
    if delta_star is None:
        alpha, targets, witness = _crucial_search(instance, net, cert)
    else:
        targets = {g.key: int(delta_star.get(g.key, 0)) for g in groups}
        witness = check_validity_flow(instance, targets, network=net, cert=cert)
        if witness is None:
            raise ValueError("delta_star is not a valid target vector")
    if alpha is None:
        alpha = min(
            (Fraction(targets[g.key], g.size) for g in groups),
            default=Fraction(0),
        )

    counts = dict(targets)
    room = cert.max_value - sum(counts.values())
    queue = _candidate_groups(instance, targets) if room else []
    while room and queue:
        base = counts
        at: dict[GroupKey, list[int]] = {}
        for i, key in enumerate(queue):
            at.setdefault(key, []).append(i)

        def admit(p: int) -> dict[GroupKey, int]:
            return {
                key: count + (bisect_left(at[key], p) if key in at else 0)
                for key, count in base.items()
            }

        witnesses = {0: witness}  # witness flow of each prefix that held

        def holds(p: int) -> bool:
            found = check_validity_flow(instance, admit(p), network=net, cert=cert)
            if found is not None:
                witnesses[p] = found
            return found is not None

        good = _gallop_last(min(room, len(queue)), holds)
        counts, witness = admit(good), witnesses[good]
        room -= good
        if good == len(queue):
            break
        rejected = queue[good]
        queue = [key for key in queue[good + 1 :] if key != rejected]

    selected = frozenset(
        sid for g in groups for sid in g.members[: counts[g.key]]
    )
    if len(selected) != min(len(instance.students), instance.capacity):
        raise InternalInvariantError("selection is wasteful")
    if flow_group_counts(net, witness) != counts:
        raise InternalInvariantError("witness flow does not carry the selection")
    return ChoiceResult(
        selected=selected,
        per_group_counts=counts,
        signature=flow_signature(net, witness),
        alpha=alpha,
        targets=targets,
    )


def flow_to_matching(
    instance: Instance,
    flow: FlowAssignment,
    *,
    network: Optional[FlowNetwork] = None,
) -> SeatMatching:
    """Decompose an integral flow into a concrete student-to-seat matching.

    Group flows are split across ranks by a greedy per-type transportation
    fill, each group's slots go to its top-priority members (best students on
    the best ranks), and seat indices within a class follow instance priority.
    """
    net = network if network is not None else build_network(instance)
    groups = instance.groups()
    amounts = flow.arc_flows
    demand = {key: amounts[e] for key, e in net.rank_arcs.items()}
    slots: dict[GroupKey, list[tuple[str, int]]] = {g.key: [] for g in groups}
    for g in groups:
        for t in list(g.key) + [GENERAL_TYPE]:
            supply = amounts[net.group_type_arcs[(g.key, t)]]
            for j in range(1, net.max_rank + 1):
                if supply == 0:
                    break
                take = min(supply, demand[(t, j)])
                if take:
                    demand[(t, j)] -= take
                    supply -= take
                    slots[g.key].extend([(t, j)] * take)
            if supply:
                raise InternalInvariantError("decomposition ran out of seat demand")
    if any(demand.values()):
        raise InternalInvariantError("decomposition left unplaced seat demand")

    class_holders: dict[tuple[str, int], list[str]] = {}
    for g in groups:
        chosen = g.members[: len(slots[g.key])]
        ordered = sorted(slots[g.key], key=lambda tj: (tj[1], tj[0]))
        for sid, (t, j) in zip(chosen, ordered):
            class_holders.setdefault((t, j), []).append(sid)
    matching: SeatMatching = {}
    by_priority = instance.priority_index
    for (t, j), holders in sorted(class_holders.items()):
        holders.sort(key=lambda sid: by_priority[sid])
        for i, sid in enumerate(holders, start=1):
            matching[sid] = Seat(type=t, rank=j, index=i)

    if matching_signature(instance, matching) != flow_signature(net, flow):
        raise InternalInvariantError("decomposition changed the signature")
    if matching_group_counts(instance, matching) != flow_group_counts(net, flow):
        raise InternalInvariantError("decomposition changed group counts")
    return matching


def matching_to_flow(
    instance: Instance,
    matching: SeatMatching,
    *,
    network: Optional[FlowNetwork] = None,
) -> FlowAssignment:
    """Lift a student-to-seat matching to arc flows on the reserve network."""
    net = network if network is not None else build_network(instance)
    flows = [0] * len(net.arcs)
    seen: set[Seat] = set()
    for sid, seat in matching.items():
        student = instance.student_by_id(sid)
        if seat in seen:
            raise ValueError(f"seat {seat} assigned twice")
        seen.add(seat)
        if seat.type != GENERAL_TYPE and seat.type not in student.type_set:
            raise ValueError(f"student {sid!r} lacks type {seat.type!r}")
        if (seat.type, seat.rank) not in net.rank_arcs:
            raise ValueError(f"no seat class {seat.type}^{seat.rank}")
        class_cap = net.arcs[net.rank_arcs[(seat.type, seat.rank)]].capacity
        if not 1 <= seat.index <= class_cap:
            raise ValueError(
                f"seat index {seat.index} outside class {seat.type}^{seat.rank}"
            )
        key = instance.group_of(sid)
        flows[net.group_arcs[key]] += 1
        flows[net.group_type_arcs[(key, seat.type)]] += 1
        flows[net.rank_arcs[(seat.type, seat.rank)]] += 1
        flows[net.seat_exit_arcs[(seat.type, seat.rank)]] += 1
        flows[net.q_sink_arc] += 1
    for f, a in zip(flows, net.arcs):
        if f > a.capacity:
            raise ValueError("matching overfills an arc capacity")
    cost = sum(f * a.cost for f, a in zip(flows, net.arcs))
    return FlowAssignment(value=len(matching), cost=cost, arc_flows=tuple(flows))
