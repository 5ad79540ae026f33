"""The min-cost flow engine, kept as the reference for the type lattice.

`reserve_match.flow` decides every check on the type lattice. This module
decides the same checks on the four-layer reserve network, the paper's
construction, so the tests can hold the lattice to it:

- `FlowNetwork` lays the network out over the root instance's group keys
  (a pool's groups get their sizes, every other group capacity 0) as four
  flat int lists indexed by arc, with its residual graph (`Residual`);
- `min_cost_max_flow` solves it from zero by successive shortest paths
  with Johnson potentials (`MinCostFlow`), and `compute_certificate` keeps
  that optimum f* on the network;
- `check_validity_flow` decides a target vector by rerouting f* along
  residual edges of reduced cost 0 (`reroute`), which are exactly the
  flows of f*'s value and cost, and returns the rerouted flow as its
  witness, or leaves a `flow._Cut` on the network;
- `flow_to_matching` decomposes a witness flow into seats, so a witness
  can be checked as a matching.

A FlowNetwork has the surface flow's searches read (`value`, `per_rank`,
`check` and `cut`), so `crucial_vector(network=...)` runs on it, and a
test that sets `flow.build_network` to `build_network` here runs
`choice_flow`, `run_gda` and `verify` on it. It is built from an instance
or from a `model.Pool`, which reads as one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import mul
from typing import Optional

from oracle import Seat, SeatMatching, group_counts, matching_signature

from reserve_match.flow import _Cut
from reserve_match.model import (
    GENERAL_TYPE,
    GroupKey,
    Instance,
    InternalInvariantError,
    Pool,
    Signature,
    TargetVector,
)

SOURCE = 0
SINK = 1


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


@dataclass(frozen=True)
class OptimalFlow:
    """An integral min-cost max-flow: per-arc amounts, its value and total
    cost, plus node potentials that prove it optimal: every arc of its
    residual graph has reduced cost
    cost + potentials[tail] - potentials[head] >= 0."""

    value: int
    cost: int
    arc_flows: tuple[int, ...]
    potentials: tuple[int, ...]


class Residual:
    """The fixed structure of a residual graph over arc lists.

    Arc e becomes residual edge 2e and its reverse edge 2e + 1: `to` holds
    each edge's head, `cost` its cost (negated on reverse edges) and
    `adjacent` each node's edges in arc order. Only the residual capacities
    change from one solve or check to the next.
    """

    def __init__(
        self, n: int, tails: list[int], heads: list[int], costs: list[int]
    ) -> None:
        self.n = n
        m = len(tails)
        self.to = [0] * (2 * m)
        self.to[0::2] = heads
        self.to[1::2] = tails
        self.cost = [0] * (2 * m)
        self.cost[0::2] = costs
        self.cost[1::2] = [-c for c in costs]
        self.adjacent: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(zip(tails, heads)):
            self.adjacent[u].append(2 * e)
            self.adjacent[v].append(2 * e + 1)


def residual_capacities(capacities: list[int], flows: tuple[int, ...]) -> list[int]:
    """Residual capacity of each edge of a Residual under a flow: edge 2e
    has arc e's room left, edge 2e + 1 its flow."""
    residual = [0] * (2 * len(capacities))
    residual[0::2] = [cap - f for cap, f in zip(capacities, flows)]
    residual[1::2] = flows
    return residual


class FlowNetwork:
    """The four-layer reserve network for one instance, as four flat lists
    indexed by arc: tails, heads, capacities and costs.

    Node order: source 0, sink 1, one node per type (sorted, then the
    general type), one per (type, rank) seat class, the capacity hub Q,
    then one per group key of the root instance (the instance a pool was
    cut from). Arc order: source->group and group->type arcs per key in
    lexicographic order, then type->class and class->Q arcs per type and
    rank, then Q->sink. Zero-capacity arcs are kept so the structure
    mirrors the construction exactly. The instance's own groups' arcs
    carry their sizes and every other group's carry 0, so a solve from
    zero gives the same optimum and potentials as a network of the pool's
    groups alone. `group_arcs` maps only its own groups. `optimum` is f*,
    solved on first use (see compute_certificate); `cut` is the _Cut of the
    last check on the network that failed.
    """

    def __init__(self, instance: Instance | Pool) -> None:
        self.instance = instance
        self.max_rank = max_rank = instance.max_rank
        capacity = instance.capacity
        all_types = sorted(instance.types) + [GENERAL_TYPE]
        type_node = {t: 2 + i for i, t in enumerate(all_types)}
        first_class = 2 + len(all_types)
        hub = first_class + len(all_types) * max_rank
        keys = instance.fixed.group_keys
        self.node_count = hub + 1 + len(keys)
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.capacities: list[int] = []
        self.costs: list[int] = []
        self.group_type_arcs: dict[tuple[GroupKey, str], int] = {}
        self.rank_arcs: dict[tuple[str, int], int] = {}
        self.optimum: Optional[OptimalFlow] = None
        self.cut: Optional[_Cut] = None

        def add_arc(tail: int, head: int, cap: int, cost: int) -> int:
            self.tails.append(tail)
            self.heads.append(head)
            self.capacities.append(cap)
            self.costs.append(cost)
            return len(self.tails) - 1

        sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))
        self.group_arcs: dict[GroupKey, int] = {}
        for u, key in enumerate(keys, start=hub + 1):
            size = sizes.get(key, 0)
            e = add_arc(SOURCE, u, size, 0)
            if key in sizes:
                self.group_arcs[key] = e
            for t in key + (GENERAL_TYPE,):
                self.group_type_arcs[(key, t)] = add_arc(u, type_node[t], size, 0)
        node = first_class
        for t in all_types:
            for j in range(1, max_rank + 1):
                if t == GENERAL_TYPE:
                    cap = capacity if j == max_rank else 0
                else:
                    cap = instance.quotas.get((t, j), 0)
                cost = rank_cost(j, capacity, max_rank)
                self.rank_arcs[(t, j)] = add_arc(type_node[t], node, cap, cost)
                add_arc(node, hub, cap, 0)
                node += 1
        self.q_sink_arc = add_arc(hub, SINK, capacity, 0)
        self.residual = Residual(self.node_count, self.tails, self.heads, self.costs)

    # the surface flow's searches read: F*, s*, one check and its cut

    @property
    def value(self) -> int:
        return compute_certificate(self).value

    @property
    def per_rank(self) -> Signature:
        return flow_signature(self, compute_certificate(self))

    def check(self, targets: TargetVector) -> bool:
        return check_validity_flow(self.instance, targets, network=self) is not None


def build_network(instance: Instance | Pool) -> FlowNetwork:
    return FlowNetwork(instance)


class MinCostFlow:
    """Successive shortest paths with Johnson potentials on integer data.

    The residual structure comes prebuilt (see Residual); the flow on arc
    e is the residual capacity of edge 2e + 1. A solve starts from zero flow
    and zero potentials, which is sound because all original costs are
    non-negative. After each Dijkstra pass the potential update is capped
    at the target distance, which keeps reduced costs non-negative for
    every arc that still has residual capacity, including across phases
    with different endpoints.
    """

    def __init__(self, residual: Residual, capacities: list[int]) -> None:
        self.n = residual.n
        self.to = residual.to
        self.cost = residual.cost
        self.adjacent = residual.adjacent
        self.cap = residual_capacities(capacities, (0,) * len(capacities))
        self.potential = [0] * self.n

    def arc_flows(self) -> tuple[int, ...]:
        """Flow on each arc of the lists the solver was built from."""
        return tuple(self.cap[1::2])

    def augment(self, source: int, target: int) -> Optional[tuple[int, int]]:
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
            for e in self.adjacent[v]:
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
        path = []
        v = target
        while v != source:
            e = prev_arc[v]
            path.append(e)
            v = self.to[e ^ 1]
        amount = min(self.cap[e] for e in path)
        for e in path:
            self.cap[e] -= amount
            self.cap[e ^ 1] += amount
        return amount, sum(self.cost[e] for e in path)

    def run(self, source: int, target: int) -> tuple[int, int]:
        """Augment until target is unreachable; returns (value, cost) added.

        No augmenting path is left once the flow added equals the residual
        capacity out of the source or into the target, so the solve stops
        there without the failing search that would prove it.
        """
        cap = self.cap
        room = min(
            sum(cap[e] for e in self.adjacent[source]),
            sum(cap[e ^ 1] for e in self.adjacent[target]),
        )
        value = 0
        cost = 0
        while value < room:
            step = self.augment(source, target)
            if step is None:
                break
            value += step[0]
            cost += step[0] * step[1]
        return value, cost


def min_cost_max_flow(network: FlowNetwork) -> OptimalFlow:
    """Integral min-cost max-flow from source to sink, solved from zero,
    with the final potentials of the solve, which prove it optimal."""
    solver = MinCostFlow(network.residual, network.capacities)
    solver.run(SOURCE, SINK)
    flows = solver.arc_flows()
    return OptimalFlow(
        value=flows[network.q_sink_arc],
        cost=sum(map(mul, flows, network.costs)),
        arc_flows=flows,
        potentials=tuple(solver.potential),
    )


def compute_certificate(network: FlowNetwork) -> OptimalFlow:
    """f*, the unconstrained min-cost max-flow of the network with the
    potentials that prove it optimal: its value F* and cost C* are the
    maximal-diversity benchmark. Solved on first use and kept as
    network.optimum."""
    if network.optimum is None:
        best = min_cost_max_flow(network)
        # |S| is the sum of the group sizes: a pool has no priority tuple
        students = sum(map(len, network.instance.member_positions()))
        expected = min(students, network.instance.capacity)
        if best.value != expected:
            raise InternalInvariantError(
                f"max flow {best.value} != min(|S|, q) = {expected}"
            )
        network.optimum = best
    return network.optimum


def reroute(
    net: FlowNetwork, best: OptimalFlow, targets: TargetVector
) -> OptimalFlow | _Cut:
    """best plus a smallest admissible circulation that lifts every group
    to its target, or a _Cut proving that none exists.

    best is the network's optimum f*. Under its potentials every residual
    edge has reduced cost >= 0, and a circulation's cost is the sum of its
    reduced costs. So a flow of value F* costs C* exactly when its
    difference from f* is a circulation on residual edges of reduced cost 0
    (the admissible edges; Ahuja, Magnanti and Orlin, Network Flows, 1993,
    ch. 9). A group's flow may move only when its source arc is admissible
    (the group is free).

    A simple cycle of such a circulation passes the source once: it
    raises one group and lowers another. Cycles that raise a group
    already at its target can be dropped (a conformal decomposition
    never lowers that group), so this is a max-flow problem from the
    deficit groups (t_u - f*_u units each, admissible source arc
    required) to the groups above their targets (f*_v - t_v each,
    admissible source arc required) over the admissible edges that
    touch neither the source nor the sink. Breadth-first augmenting
    paths on the network's residual graph solve it exactly; each node's
    edges are tried in arc order.

    The flow returned carries f*'s potentials, which prove it optimal
    too: it differs from f* only on arcs of reduced cost 0.

    When no path is left, let R be the free groups whose nodes the last
    search reached from the deficits. Every other maximal-diversity flow
    differs from the current one by admissible cycles through the
    source; one that raises a group of R runs on from it to a free group
    it reaches, which is in R too. So no such flow gives R more than its
    current total, while R's targets ask for more: each of its groups is
    at or below its target (none is a surplus), and a deficit is below.
    """
    flows, pot = best.arc_flows, best.potentials
    need: dict[int, int] = {}
    spare: dict[int, int] = {}
    group_arc: dict[int, int] = {}  # group node -> its source arc
    free: dict[int, GroupKey] = {}  # free group node -> its key
    for key, e in net.group_arcs.items():
        node = net.heads[e]
        group_arc[node] = e
        if pot[SOURCE] == pot[node]:
            free[node] = key
        has, want = flows[e], targets.get(key, 0)
        if want > has:
            # never true with the solver's own potentials, which keep
            # every unsaturated source arc at reduced cost 0; exactness
            # needs it for optimal potentials in general
            if node not in free:
                return _Cut((key,), has)
            need[node] = want - has
        elif want < has and node in free:
            spare[node] = has - want
    if not need:
        return best
    graph = net.residual
    to, cost, adjacent = graph.to, graph.cost, graph.adjacent
    residual = residual_capacities(net.capacities, flows)
    while need:
        prev: dict[int, Optional[int]] = dict.fromkeys(need)
        queue = list(need)
        for v in queue:
            if v in spare:
                break
            for e in adjacent[v]:
                w = to[e]
                if residual[e] and w > SINK and w not in prev:
                    if cost[e] + pot[v] == pot[w]:
                        prev[w] = e
                        queue.append(w)
        else:
            reached = [node for node in free if node in prev]
            return _Cut(
                tuple(map(free.__getitem__, reached)),
                sum(residual[2 * group_arc[node] + 1] for node in reached),
            )
        end = v
        path = []
        while prev[v] is not None:
            e = prev[v]
            path.append(e)
            v = to[e ^ 1]
        amount = min(spare[end], need[v], *(residual[e] for e in path))
        # the source arcs close the cycle: v's rises, end's falls
        path += (2 * group_arc[v], 2 * group_arc[end] + 1)
        for e in path:
            residual[e] -= amount
            residual[e ^ 1] += amount
        need[v] -= amount
        if not need[v]:
            del need[v]
        spare[end] -= amount
        if not spare[end]:
            del spare[end]
    flows = tuple(residual[1::2])
    value = sum(map(flows.__getitem__, group_arc.values()))
    total = sum(map(mul, flows, net.costs))
    if value != best.value or total != best.cost:
        raise InternalInvariantError("rerouted flow left the optimum")
    return OptimalFlow(value=value, cost=total, arc_flows=flows, potentials=pot)


def flow_signature(network: FlowNetwork, flow: OptimalFlow) -> Signature:
    """Per-rank unit counts of a flow, read off the type->class arcs."""
    sig = [0] * network.max_rank
    for (_t, j), e in network.rank_arcs.items():
        sig[j - 1] += flow.arc_flows[e]
    return tuple(sig)


def flow_group_counts(network: FlowNetwork, flow: OptimalFlow) -> dict[GroupKey, int]:
    return {key: flow.arc_flows[e] for key, e in network.group_arcs.items()}


def check_validity_flow(
    instance: Instance,
    targets: TargetVector,
    *,
    network: Optional[FlowNetwork] = None,
) -> Optional[OptimalFlow]:
    """Witness flow if some maximal-diversity flow meets the targets, else
    None with the failed check's _Cut left on the network.

    Validity means some flow of the unconstrained optimum's value F* and
    cost C* carries at least each group's target; feasibility alone would
    not preserve maximal diversity. The check starts from the network's
    optimum f* and routes each group's shortfall from groups above their
    targets along residual edges of reduced cost 0 (see reroute).
    """
    net = network if network is not None else build_network(instance)
    unknown = set(targets) - net.group_arcs.keys()
    if unknown:
        raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
    if any(v < 0 for v in targets.values()):
        raise ValueError("negative target")
    best = compute_certificate(net)
    for key, want in targets.items():
        size = net.capacities[net.group_arcs[key]]
        if want > size:
            net.cut = _Cut((key,), size)
            return None
    if sum(targets.values()) > best.value:
        net.cut = _Cut(tuple(net.group_arcs), best.value)
        return None
    found = reroute(net, best, targets)
    if isinstance(found, _Cut):
        net.cut = found
        return None
    return found


def flow_to_matching(
    instance: Instance,
    flow: OptimalFlow,
    *,
    network: Optional[FlowNetwork] = None,
) -> SeatMatching:
    """Decompose an integral flow into a concrete student-to-seat matching.

    Group flows are split across ranks by a greedy per-type transportation
    fill, each group's slots go to its top-priority members (best students on
    the best ranks), and seat indices within a class follow instance priority.
    """
    net = network if network is not None else build_network(instance)
    keys = instance.group_keys()
    amounts = flow.arc_flows
    demand = {key: amounts[e] for key, e in net.rank_arcs.items()}
    slots: dict[GroupKey, list[tuple[str, int]]] = {key: [] for key in keys}
    for key in keys:
        for t in list(key) + [GENERAL_TYPE]:
            supply = amounts[net.group_type_arcs[(key, t)]]
            for j in range(1, net.max_rank + 1):
                if supply == 0:
                    break
                take = min(supply, demand[(t, j)])
                if take:
                    demand[(t, j)] -= take
                    supply -= take
                    slots[key].extend([(t, j)] * take)
            if supply:
                raise InternalInvariantError("decomposition ran out of seat demand")
    if any(demand.values()):
        raise InternalInvariantError("decomposition left unplaced seat demand")

    # each class's holders as (priority position, id), so sorting them
    # orders the class by priority
    class_holders: dict[tuple[str, int], list[tuple[int, str]]] = {}
    priority = instance.priority
    for key, positions in zip(keys, instance.member_positions()):
        ordered = sorted(slots[key], key=lambda tj: (tj[1], tj[0]))
        members = map(priority.__getitem__, positions)
        for held, (t, j) in zip(zip(positions, members), ordered):
            class_holders.setdefault((t, j), []).append(held)
    matching: SeatMatching = {}
    for (t, j), holders in sorted(class_holders.items()):
        holders.sort()
        for i, (_p, sid) in enumerate(holders, start=1):
            matching[sid] = Seat(type=t, rank=j, index=i)

    if matching_signature(instance, matching) != flow_signature(net, flow):
        raise InternalInvariantError("decomposition changed the signature")
    if group_counts(instance, matching) != flow_group_counts(net, flow):
        raise InternalInvariantError("decomposition changed group counts")
    return matching
