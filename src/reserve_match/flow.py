"""Flow-network solver: exact min-cost max-flow over the four-layer reserve
network, validity checking, crucial-vector search and the choice function.

The network has one node per group, per type (including the general type) and
per (type, rank) seat class, plus a capacity node. Only type->class arcs carry
cost; the cost of rank i is chosen so that minimizing total cost over flows of
a fixed value maximizes the per-rank signature lexicographically.

A network is four flat int lists indexed by arc (tails, heads, capacities,
costs). Only the group arcs' capacities differ between an instance and its
restrictions (the pools of a GDA school), so the instance lays out one
standing network with the arcs of every group key it has, and its residual
graph (_Residual), once. A pool's network copies the capacity list and sets
its own groups' arcs to their sizes. The solver and the validity checks
walk that one residual graph, each with residual capacities of its own.
The engine reads an instance's groups as its group keys and the priority
positions of each group's members (Instance.member_positions), never as
Group objects: a choice reads a group's selected students off its
positions in the priority.

Each network is solved once: the unconstrained min-cost max-flow f* with
its final Johnson potentials, which certify it, is kept as the network's
`optimum` and nowhere else (see compute_certificate). A solve starts from
zero, or is not needed: a min-cost flow of another network on the same
standing layout, with its potentials, is f* itself when it already carries
min(|S|, q) units and those potentials certify it on the new capacities
(every residual arc at reduced cost >= 0). Deferred acceptance hands each
school's choice its last choice's witness this way. A validity check
(is there a maximal-diversity flow giving every group at least its target?)
is then a small max-flow on the residual edges of f* whose reduced cost is
0, because those reroutes of f* are exactly the flows with f*'s value and
cost (Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 9: complementary
slackness). So f*'s potentials prove every witness a check returns optimal
too. The alpha search and the greedy walk make all their checks on that
one solve.

A check that fails leaves a cut: a set of groups and a bound on the total
flow any maximal-diversity flow can give them, which the targets exceed.
Both searches descend on those cuts in one loop (_descend), in the manner
of Dinkelbach's parametric method (Management Science 13(7), 1967): from
the largest point whose targets fit in F*, each failed check moves straight
to the largest point its cut allows, and a point known valid ends the
descent without a check. The alpha search (over ratios) took one or two
checks on every instance measured, the greedy walk (over prefixes) 5 on
the benchmark's hard-regime school. A choice that computes its own targets
starts with the walk, from the alpha search's first point: alpha is that
point unless a cut of the walk's first round breaks its targets, and then
the alpha search goes on from that cut (see choice_flow).

The same checks can be decided on the type lattice instead (_TypeLattice),
whose size depends on the types alone. Let R' be the k' reserved types
that occur in the root instance's group keys, K_u inside R' group u's key,
Q_j(T) the rank-j quota of the types in a set T of them (plus the q
general seats at the last rank), and s* the optimum's per-rank seat
counts. Edmonds' polymatroid greedy (Submodular functions, matroids, and
certain polyhedra, 1970), taking the seat classes rank by rank, gives
F* = min(|S|, q) and s*, the seats at the ranks up to m being the most a
matching can give them (a min cut over the type sets). Targets l are then
valid exactly when every l_u fits its group and, for every T inside R',

    sum {l_u : K_u inside T} <= rhs(T) = sum_j min(s*_j, Q_j(T))

by Hoffman's circulation theorem (Proc. Symp. Appl. Math. 10, 1960) on
the network with [l_u, |S_u|] on the group arcs and [s*_j, s*_j] on the
per-rank totals, whose only cuts that can fail are one type set and its
best ranks. One subset-sum (zeta) pass over the 2^k' sets decides a
vector, and a set that fails is a _Cut: the groups inside it, bounded by
rhs(T), which every maximal-diversity matching obeys. _descend and _Walk
read only verdicts and cuts, so they run on either engine and choose the
same students.

The engine rule (engine(), _layout): an instance and its restrictions use
the lattice when its 2^k' sets number at most LATTICE_SETS_PER_ARC per arc
of the root's network, and the network otherwise (many types in few
groups). The rule is decided once per root. check_validity_flow, whose
witness `validate` decomposes into seats, always runs on the network, and
the tests hold the lattice to it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, repeat
from math import gcd
from operator import add, mul, sub
from typing import Callable, Optional, TypeVar

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
    group_counts,
    matching_signature,
    min_count_ratio,
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


@dataclass(frozen=True)
class _Cut:
    """Why a target vector is invalid: no flow of value F* and cost C* gives
    the groups in `groups` more than `bound` units in total, and their
    targets sum to more than that."""

    groups: tuple[GroupKey, ...]
    bound: int


SOURCE = 0
SINK = 1

_Point = TypeVar("_Point", int, Fraction)  # a ratio or a prefix length
# what a check that holds returns: a flow on a network, the targets on a
# type lattice
_Witness = OptimalFlow | dict[GroupKey, int]


class _Residual:
    """The fixed structure of a residual graph over arc lists.

    Arc e becomes residual edge 2e and its reverse edge 2e + 1: `to` holds
    each edge's head, `cost` its cost (negated on reverse edges) and
    `adjacent` each node's edges in arc order. Only the residual capacities
    change from one solve or validity check to the next, so every solve and
    check on a standing network walks these.
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


def _residual_capacities(capacities: list[int], flows: tuple[int, ...]) -> list[int]:
    """Residual capacity of each edge of a _Residual under a flow: edge 2e
    has arc e's room left, edge 2e + 1 its flow."""
    residual = [0] * (2 * len(capacities))
    residual[0::2] = [cap - f for cap, f in zip(capacities, flows)]
    residual[1::2] = flows
    return residual


class _StandingNetwork:
    """The reserve network of an instance over all its group keys, laid out
    once and shared by every restriction of the instance (see FixedPart).

    It has a node, a source->group arc and group->type arcs for every key
    in the instance's group-key table, built from those keys, so it holds
    the arcs of every pool's groups; all group arcs have capacity 0 here.
    After them come the type, seat-class and hub nodes' arcs with their
    rank costs, and the residual graph that solves and checks walk. A pool's
    network copies only the capacity list and sets its groups' arcs to their
    sizes. The other groups' nodes are then unreachable, and the present
    ones keep their order, so a solve from zero gives the same optimum and
    potentials as a network of the pool's groups alone. Because every pool
    of the instance numbers its arcs the same way, a flow on one pool's
    network is a flow on the next one's too.
    """

    def __init__(self, instance: Instance) -> None:
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
        self.group_arcs: dict[GroupKey, int] = {}
        self.group_type_arcs: dict[tuple[GroupKey, str], int] = {}
        self.rank_arcs: dict[tuple[str, int], int] = {}

        def add_arc(tail: int, head: int, cap: int, cost: int) -> int:
            self.tails.append(tail)
            self.heads.append(head)
            self.capacities.append(cap)
            self.costs.append(cost)
            return len(self.tails) - 1

        for u, key in enumerate(keys, start=hub + 1):
            self.group_arcs[key] = add_arc(SOURCE, u, 0, 0)
            for t in key + (GENERAL_TYPE,):
                self.group_type_arcs[(key, t)] = add_arc(u, type_node[t], 0, 0)
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
        self.residual = _Residual(self.node_count, self.tails, self.heads, self.costs)


class FlowNetwork:
    """The four-layer reserve network for one instance, as four flat lists
    indexed by arc: tails, heads, capacities and costs.

    Node order: source 0, sink 1, one node per type (sorted, then the
    general type), one per (type, rank) seat class, the capacity hub Q,
    then one per group key of the root instance (the instance a pool was
    cut from). Arc order: source->group and group->type arcs per key in
    lexicographic order, then type->class and class->Q arcs per type and
    rank, then Q->sink. Zero-capacity arcs are kept so the structure
    mirrors the construction exactly. All of it but the capacities is the
    root instance's standing network (see _StandingNetwork), shared by every
    restriction; a network sets its own groups' arcs to their sizes and
    leaves every other group's at 0. `group_arcs` maps only its own groups.
    `optimum` is the unconstrained min-cost max-flow f* with its
    potentials, solved on first use (see compute_certificate) and held
    nowhere else, so every validity check on one network reroutes a single
    min-cost flow solve; `start`, when it is full and certified, is that
    optimum with no solve (see min_cost_max_flow). `cut` is the _Cut of
    the last check on the network that failed.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        fixed = instance.fixed
        if fixed.network is None:
            fixed.network = _StandingNetwork(instance)
        standing = self.standing = fixed.network
        self.max_rank = standing.max_rank
        self.node_count = standing.node_count
        # shared with every network of the instance: never written
        self.tails = standing.tails
        self.heads = standing.heads
        self.costs = standing.costs
        self.group_type_arcs = standing.group_type_arcs
        self.rank_arcs = standing.rank_arcs
        self.q_sink_arc = standing.q_sink_arc
        self.start: Optional[OptimalFlow] = None
        self.optimum: Optional[OptimalFlow] = None
        self.cut: Optional[_Cut] = None
        capacities = list(standing.capacities)
        self.group_arcs: dict[GroupKey, int] = {}
        for key, members in zip(instance.group_keys(), instance.member_positions()):
            # the source arc, then one arc per type and the general type
            e = self.group_arcs[key] = standing.group_arcs[key]
            width = len(key) + 2
            capacities[e : e + width] = [len(members)] * width
        self.capacities = capacities

    # the surface _descend, _Walk and choice_flow read, shared with
    # _TypeLattice: F*, one check, and what a witness carries

    @property
    def value(self) -> int:
        """F*, the value of the network's optimum (see compute_certificate)."""
        return compute_certificate(self).value

    def check(self, targets: TargetVector) -> Optional[OptimalFlow]:
        """check_validity_flow on this network; a failed check leaves its
        _Cut in `cut`."""
        return check_validity_flow(self.instance, targets, network=self)

    def signature(self, witness: OptimalFlow) -> Signature:
        return flow_signature(self, witness)

    def counts(self, witness: OptimalFlow) -> dict[GroupKey, int]:
        return flow_group_counts(self, witness)


def build_network(instance: Instance) -> FlowNetwork:
    return FlowNetwork(instance)


class _MinCostFlow:
    """Successive shortest paths with Johnson potentials on integer data.

    The residual structure comes prebuilt (see _Residual); the flow on arc
    e is the residual capacity of edge 2e + 1. A solve starts from zero flow
    and zero potentials, which is sound because all original costs are
    non-negative. After each
    Dijkstra pass the potential update is capped at the target distance,
    which keeps reduced costs non-negative for every arc that still has
    residual capacity, including across phases with different endpoints.
    """

    def __init__(self, residual: _Residual, capacities: list[int]) -> None:
        self.n = residual.n
        self.to = residual.to
        self.cost = residual.cost
        self.adjacent = residual.adjacent
        self.cap = _residual_capacities(capacities, (0,) * len(capacities))
        self.potential = [0] * self.n

    def arc_flows(self) -> tuple[int, ...]:
        """Flow on each arc of the lists the solver was built from."""
        return tuple(self.cap[1::2])

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
            step = self._augment(source, target)
            if step is None:
                break
            value += step[0]
            cost += step[0] * step[1]
        return value, cost


def _certified(network: FlowNetwork, start: OptimalFlow) -> bool:
    """Whether a solve on the network may start from `start`, a flow on the
    same standing network with potentials.

    It may when the flow is a min-cost flow of its value here: every arc
    flow lies within this network's capacity, flow is conserved, and every
    residual arc has reduced cost cost + potentials[tail] -
    potentials[head] >= 0 (Ahuja, Magnanti and Orlin, Network Flows, 1993,
    ch. 9). One pass over the arcs decides it.
    """
    flows, pot = start.arc_flows, start.potentials
    if len(flows) != len(network.tails) or len(pot) != network.node_count:
        return False
    balance = [0] * network.node_count
    arcs = zip(network.tails, network.heads, network.capacities, network.costs)
    for f, (u, v, cap, cost) in zip(flows, arcs):
        if not 0 <= f <= cap:
            return False
        reduced = cost + pot[u] - pot[v]
        if (reduced < 0 and f < cap) or (reduced > 0 and f > 0):
            return False
        balance[u] -= f
        balance[v] += f
    return not any(balance[SINK + 1 :])


def min_cost_max_flow(network: FlowNetwork) -> OptimalFlow:
    """Integral min-cost max-flow from source to sink, with the final
    potentials of the successive-shortest-path solve, which prove it
    optimal.

    network.start is the result itself, and no solver is built, when it
    already carries min(|S|, q) units, all any flow can carry, and
    _certified accepts it; the value is compared first, as it is the
    cheaper test. Otherwise the solve starts from zero.
    """
    start = network.start
    full = min(len(network.instance.priority), network.instance.capacity)
    if start is not None and start.value == full and _certified(network, start):
        return start
    solver = _MinCostFlow(network.standing.residual, network.capacities)
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
        expected = min(len(network.instance.priority), network.instance.capacity)
        if best.value != expected:
            raise InternalInvariantError(
                f"max flow {best.value} != min(|S|, q) = {expected}"
            )
        network.optimum = best
    return network.optimum


def _reroute(
    net: FlowNetwork, best: OptimalFlow, targets: TargetVector
) -> OptimalFlow | _Cut:
    """best plus a smallest admissible circulation that lifts every group
    to its target, or a _Cut proving that none exists.

    best is the network's optimum f*. Under its potentials every residual
    edge has reduced cost >= 0, and a circulation's cost is the sum of its
    reduced costs. So a flow of value F* costs C* exactly when its
    difference from f* is a circulation on residual edges of reduced cost 0
    (the admissible edges). A group's flow may move only when its source
    arc is admissible (the group is free).

    A simple cycle of such a circulation passes the source once: it
    raises one group and lowers another. Cycles that raise a group
    already at its target can be dropped (a conformal decomposition
    never lowers that group), so this is a max-flow problem from the
    deficit groups (t_u - f*_u units each, admissible source arc
    required) to the groups above their targets (f*_v - t_v each,
    admissible source arc required) over the admissible edges that
    touch neither the source nor the sink. Breadth-first augmenting
    paths on the standing network's residual graph solve it exactly;
    each node's edges are tried in arc order.

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
    graph = net.standing.residual
    to, cost, adjacent = graph.to, graph.cost, graph.adjacent
    residual = _residual_capacities(net.capacities, flows)
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
    """Witness flow if some maximal-diversity flow meets the targets, else None.

    Validity means some flow of the unconstrained optimum's value F* and
    cost C* carries at least each group's target; feasibility alone would
    not preserve maximal diversity. The check needs no new min-cost solve:
    it starts from the network's optimum f* and its potentials (solved by
    compute_certificate on the first check), and routes each group's
    shortfall t_u - f*_u from groups above their targets along residual
    edges of reduced cost 0 (see _reroute).
    Those reroutes are exactly the flows of value F* and cost C*, so the
    verdict is exact. The witness is f* itself when f* already meets the
    targets, and otherwise f* plus the rerouted units; either way it
    carries f*'s potentials, which prove it optimal. A failed check leaves
    its _Cut on the network.
    """
    net = network if network is not None else build_network(instance)
    unknown = set(targets) - net.group_arcs.keys()
    if unknown:
        raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
    if any(v < 0 for v in targets.values()):
        raise ValueError("negative target")
    best = net.optimum or compute_certificate(net)
    for key, want in targets.items():
        size = net.capacities[net.group_arcs[key]]
        if want > size:
            net.cut = _Cut((key,), size)
            return None
    if sum(targets.values()) > best.value:
        net.cut = _Cut(tuple(net.group_arcs), best.value)
        return None
    found = _reroute(net, best, targets)
    if isinstance(found, _Cut):
        net.cut = found
        return None
    return found


# The engine rule: an instance's checks run on its type lattice when the
# lattice's 2^k' type sets number at most this many per arc of the root
# instance's flow network, and on that network otherwise (see _layout).
# Measured on schools of 10 to 14 types: at up to 4.6 sets per arc the
# lattice's choice, verify and baseline ran 1.7x to 114x faster than the
# network's; at 10.7 its choice ran 1.2x slower.
LATTICE_SETS_PER_ARC = 4


def _halves(bit: int, size: int) -> list[tuple[slice, slice]]:
    """The type sets below `size` that hold `bit`, paired with the same sets
    without it, as a few slices: one per offset below the bit, or one per
    block of 2 * bit sets, whichever is fewer (at most sqrt(size / 2))."""
    step = 2 * bit
    if bit <= size // step:
        return [(slice(o + bit, size, step), slice(o, size, step)) for o in range(bit)]
    return [
        (slice(base + bit, base + step), slice(base, base + bit))
        for base in range(0, size, step)
    ]


def _zeta(values: list[int], halves: list[list[tuple[slice, slice]]]) -> None:
    """Turn values over type sets into their subset sums, in place: each
    set T then holds the sum over the sets inside T."""
    for pairs in halves:
        for upper, lower in pairs:
            values[upper] = map(add, values[upper], values[lower])


def _modular(weights: list[int]) -> list[int]:
    """The sum of the weights of the bits in each type set, by doubling."""
    row = [0]
    for w in weights:
        row += [x + w for x in row]
    return row


class _LatticeLayout:
    """The type lattice of a root instance, laid out once and shared by
    every restriction of it (see FixedPart).

    A type set T is an int below `size` = 2^k', one bit per reserved type
    that occurs in the root's group keys, in sorted order. `masks` gives
    each group key its set K_u, and `halves[i]` are bit i's slices (see
    _halves). For each rank j below the last (the ranks with quotas),
    `seats[j - 1][T]` is Q_j(T), the rank-j quota of the types in T, and
    `upto[j - 1][T]` the quota of those types at the ranks up to j; the
    last rank holds only the q general seats.
    """

    def __init__(self, instance: Instance, types: list[str]) -> None:
        bit = {t: 1 << i for i, t in enumerate(types)}
        keys = instance.fixed.group_keys
        self.masks = {key: sum(map(bit.__getitem__, key)) for key in keys}
        self.capacity = instance.capacity
        self.size = 1 << len(types)
        self.halves = [_halves(1 << i, self.size) for i in range(len(types))]
        quota = instance.quotas.get
        held = [0] * len(types)
        self.seats: list[list[int]] = []
        self.upto: list[list[int]] = []
        for j in range(1, instance.max_rank):
            rank = [quota((t, j), 0) for t in types]
            held = list(map(add, held, rank))
            self.seats.append(_modular(rank))
            self.upto.append(_modular(held))


class _TypeLattice:
    """The validity checks of one instance (a root or a pool of it) on its
    root's type lattice, with the surface of FlowNetwork that _descend,
    _Walk and choice_flow read.

    `value` is F* = min(|S|, q) and `per_rank` is s*, the per-rank seat
    counts of every maximal-diversity matching. Edmonds' polymatroid
    greedy, taking the (type, rank) classes rank by rank, gives s*, and it
    fills every prefix of its order as far as the classes can hold: its
    seats at the ranks up to m are the most those classes can take,
    min(q, min over type sets U of C_m(U) + cov(R' - U)), with C_m(U) the
    quota of U's types at ranks up to m and cov(R' - U) the students who
    hold a type outside U (a min cut of the network up to rank m). The
    general seats take the rest of F* at the last rank.

    A target vector l is valid exactly when each l_u fits its group and,
    for every type set T, L(T) = sum {l_u : K_u inside T} <= rhs(T) =
    sum_j min(s*_j, Q_j(T)), with q general seats at the last rank in every
    Q_r(T). A check that holds returns the targets as its witness; one
    that fails leaves a _Cut in `cut`: the groups inside the set with the
    largest excess L(T) - rhs(T) (the first such set), bounded by rhs(T).
    """

    def __init__(self, instance: Instance, layout: _LatticeLayout) -> None:
        sizes = zip(instance.group_keys(), map(len, instance.member_positions()))
        self.sizes = dict(sizes)
        self.masks = masks = layout.masks
        self.halves = layout.halves
        self.cut: Optional[_Cut] = None
        n = len(instance.priority)
        self.value = min(n, layout.capacity)
        # inside[U]: the students whose key lies inside U, so n - inside[U]
        # hold a type outside U
        inside = [0] * layout.size
        for key, size in self.sizes.items():
            inside[masks[key]] += size
        _zeta(inside, self.halves)
        held = [
            min(layout.capacity, n - max(map(sub, inside, upto)))
            for upto in layout.upto
        ]
        self.per_rank: Signature = tuple(
            map(sub, held + [self.value], [0] + held)
        )
        rhs = [self.per_rank[-1]] * layout.size
        for s, seats in zip(self.per_rank, layout.seats):
            if s:
                rhs = list(map(add, rhs, map(min, repeat(s), seats)))
        self.rhs = rhs

    def check(self, targets: TargetVector) -> Optional[dict[GroupKey, int]]:
        """The targets if they are valid, else None with the cut left in
        `cut`; unknown groups and negative targets raise ValueError, as in
        check_validity_flow."""
        sizes = self.sizes
        if not sizes.keys() >= targets.keys():
            unknown = set(targets) - sizes.keys()
            raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
        if min(targets.values(), default=0) < 0:
            raise ValueError("negative target")
        have = [0] * len(self.rhs)
        masks = self.masks
        for key, want in targets.items():
            if want > sizes[key]:
                self.cut = _Cut((key,), sizes[key])
                return None
            have[masks[key]] += want
        if sum(targets.values()) > self.value:
            self.cut = _Cut(tuple(sizes), self.value)
            return None
        _zeta(have, self.halves)
        excess = list(map(sub, have, self.rhs))
        worst = max(excess)
        if worst <= 0:
            return dict(targets)
        t = excess.index(worst)
        inside = tuple(key for key in sizes if not masks[key] & ~t)
        self.cut = _Cut(inside, self.rhs[t])
        return None

    def signature(self, witness: dict[GroupKey, int]) -> Signature:
        return self.per_rank

    def counts(self, witness: dict[GroupKey, int]) -> dict[GroupKey, int]:
        return witness


def _layout(instance: Instance) -> Optional[_LatticeLayout]:
    """The root instance's type lattice, or None when the engine rule leaves
    the instance on the flow network: when its 2^k' type sets outnumber
    LATTICE_SETS_PER_ARC per arc of the root's network (see
    _StandingNetwork, whose arcs are counted here without building it).
    Decided and laid out once per root, on its FixedPart."""
    fixed = instance.fixed
    if fixed.lattice is None:
        keys = fixed.group_keys
        types = sorted(set(chain.from_iterable(keys)))
        classes = (len(instance.types) + 1) * instance.max_rank
        arcs = sum(map(len, keys)) + 2 * len(keys) + 2 * classes + 1
        fits = 1 << len(types) <= LATTICE_SETS_PER_ARC * arcs
        fixed.lattice = _LatticeLayout(instance, types) if fits else False
    return fixed.lattice or None


def engine(
    instance: Instance, start: Optional[OptimalFlow] = None
) -> FlowNetwork | _TypeLattice:
    """The validity checks the engine rule picks for the instance: its type
    lattice, or else a FlowNetwork with `start` (see min_cost_max_flow)."""
    layout = _layout(instance)
    if layout is not None:
        return _TypeLattice(instance, layout)
    net = build_network(instance)
    net.start = start
    return net


def optimum(instance: Instance) -> tuple[int, Signature]:
    """F* and s*, the value and per-rank signature of every maximal-diversity
    matching, from the engine the rule picks: the lattice's greedy, or the
    network's min-cost max-flow f*."""
    checks = engine(instance)
    if isinstance(checks, FlowNetwork):
        best = compute_certificate(checks)
        return best.value, flow_signature(checks, best)
    return checks.value, checks.per_rank


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


def _descend(
    net: FlowNetwork | _TypeLattice,
    point: _Point,
    targets_at: Callable[[_Point], dict[GroupKey, int]],
    below: Callable[[_Cut], _Point],
    floor: Optional[_Witness] = None,
) -> Optional[tuple[_Point, dict[GroupKey, int], _Witness]]:
    """The largest valid point at or under `point`, its targets and the
    witness of its check (net.check), for targets that grow with the point.
    It reads only verdicts and cuts, so either engine serves it. After
    a failed check it moves to below(cut), the largest point the check's
    cut allows: every valid point obeys the cut and the point just checked
    does not, so the first check that holds is at the answer. `floor`, when
    given, is the witness of point 0, which is then known valid: the descent
    returns it there without a check. A cut that even point 0 breaks
    (below(cut) < 0) ends the descent with None, the cut left on the
    network."""
    while point or floor is None:
        targets = targets_at(point)
        witness = net.check(targets)
        if witness is not None:
            return point, targets, witness
        lower = below(net.cut)
        if lower < 0:
            return None
        if lower >= point:
            raise InternalInvariantError(
                f"cut bound {lower} is not below the checked point {point}"
            )
        point = lower
    return point, targets_at(point), floor


def _last_ratio(sizes: list[int], bound: int) -> Fraction:
    """Largest beta in {0} | {j / s : s in sizes, 0 < j <= s} with
    sum(ceil(beta * s) for s in sizes) <= bound, for a bound >= 0.

    The sum grows with beta, so bisecting the grid k / m of the largest
    size m brackets the answer in [k / m, (k + 1) / m). A size of at most m
    has at most one grid point in that window, so a second bisection over
    those points finishes. Only sums are evaluated, no validity check, and
    only on integers: the window holds each point as a reduced (j, s) pair,
    and one Fraction is built for the answer.
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
            d = gcd(j, size)
            window.add((j // d, size // d))
    # reduced pairs name distinct points; cross-multiplying orders them, so
    # the list starts at k / top, from the largest size
    ordered = sorted(window, key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    last = _bisect_last(0, len(ordered), lambda i: fits(*ordered[i]))
    return Fraction(*ordered[last])


def crucial_vector(
    instance: Instance,
    *,
    network: Optional[FlowNetwork | _TypeLattice] = None,
    cert: Optional[OptimalFlow] = None,
) -> tuple[Ratio, dict[GroupKey, int]]:
    """Maximum balanced ratio alpha and its per-group targets.

    The targets are the pointwise ceilings ceil(alpha * |S_u|). Ceilings make
    validity at a ratio beta equivalent to beta <= alpha (validity is
    downward closed and the targets grow with beta), and alpha is the largest
    feasible point of the candidate set {0} | {k / |S_u|}. The search
    descends on that set from above without building it (see _descend):
    from the largest candidate whose targets sum to at most F*, each failed
    check moves to the largest candidate whose targets over the cut's groups
    sum to at most its bound, found by arithmetic alone. On every instance
    measured, from the golden corpus to G = 256 groups, that took one or two
    checks. The resulting vector is the tightest one every balanced
    selection must meet.

    The checks run on `network` when it is given (a FlowNetwork, or what
    engine() returns), and otherwise on the engine the rule picks. `cert`
    is never read: a network holds its optimum f*. The parameter stays
    because an existing caller (the benchmark's traced run) passes it.
    """
    net = network if network is not None else engine(instance)
    alpha, targets, _witness = _crucial_search(instance, net)
    return alpha, targets


def _ratio_search(
    instance: Instance, bound: int
) -> tuple[
    Fraction, Callable[[Fraction], dict[GroupKey, int]], Callable[[_Cut], Fraction]
]:
    """Where the alpha search starts and how it moves (see _descend): the
    largest candidate ratio whose targets sum to at most `bound` (F*), the
    targets at a ratio, and the largest ratio whose targets over a cut's
    groups fit its bound."""
    sizes = dict(zip(instance.group_keys(), map(len, instance.member_positions())))

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        num, den = beta.numerator, beta.denominator
        return {key: -(-num * size // den) for key, size in sizes.items()}

    def below(cut: _Cut) -> Fraction:
        return _last_ratio([sizes[key] for key in cut.groups], cut.bound)

    return _last_ratio(list(sizes.values()), bound), targets_at, below


def _crucial_search(
    instance: Instance, net: FlowNetwork | _TypeLattice
) -> tuple[Ratio, dict[GroupKey, int], OptimalFlow | dict[GroupKey, int]]:
    """crucial_vector's alpha and targets, plus the witness of the check
    that held: on a network, a maximal-diversity flow meeting exactly those
    targets."""
    return _descend(net, *_ratio_search(instance, net.value))


class _Walk:
    """The greedy walk of choice_flow, round by round, from its targets.

    A group's live candidates are its members past its count, while the
    group is live. A round admits the longest valid prefix of all live
    candidates in priority order, found by _descend: `point` is the
    longest prefix that fits in the room left under F*, targets_at(p) the
    counts with the round's first p candidates admitted, and below(cut) the
    longest prefix whose counts over the cut's groups fit its bound, -1 when
    even the round's starting counts do not.
    Every round after the first starts from the counts of a check that
    held, so only the first round's starting counts can break a cut.
    """

    def __init__(
        self, instance: Instance, targets: dict[GroupKey, int], bound: int
    ) -> None:
        self.size = len(instance.priority)
        self.targets = targets
        self.counts = dict(targets)
        self.room = bound - sum(targets.values())
        # priority positions of each live group's candidates (its members
        # past the target); a round admits a prefix of the live candidates,
        # so each list's admitted ones come first and precede every live
        # one still out
        self.at = {
            key: members[targets[key] :]
            for key, members in zip(
                instance.group_keys(), instance.member_positions() if self.room else ()
            )
        }
        self.point = self._round()

    def _round(self) -> int:
        """Set up a round at the current counts; returns its point."""
        counts, targets = self.counts, self.targets
        self.first = {key: counts[key] - targets[key] for key in self.at}
        self.taken = sum(self.first.values())
        self.left = sum(map(len, self.at.values())) - self.taken
        return min(self.room, self.left)

    def targets_at(self, p: int) -> dict[GroupKey, int]:
        """The counts with the round's first p live candidates admitted."""
        # the smallest position x with p live candidates before it; each
        # list's admitted candidates precede every live one still out, so
        # once the lists count `taken` in all, each counts its own
        lists, want = self.at.values(), p + self.taken
        lo, hi = 0, self.size
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(bisect_left(pos, mid) for pos in lists) >= want:
                hi = mid
            else:
                lo = mid + 1
        grown = dict(self.counts)
        first = self.first
        for key, pos in self.at.items():
            grown[key] += bisect_left(pos, lo) - first[key]
        return grown

    def below(self, cut: _Cut) -> int:
        """The longest prefix whose counts over the cut's groups fit, or -1
        when the round's starting counts break the cut."""

        def fits(p: int) -> bool:
            grown = self.targets_at(p)
            return sum(grown[key] for key in cut.groups) <= cut.bound

        return _bisect_last(-1, self.left + 1, fits)

    def run(
        self,
        net: FlowNetwork | _TypeLattice,
        witness: Optional[_Witness],
        cut: Optional[_Cut] = None,
    ) -> Optional[_Witness]:
        """Walk the rounds left; returns the witness of the last check that
        held, `witness` when no round is left.

        `witness` is that of the current counts, or None when they are not
        known valid: the first round then checks them if its descent gets
        to them, and the walk returns None when a cut breaks them. A round
        that admits its whole point ends the walk. Otherwise the round's
        last cut that lowered its point has its groups at its bound with
        the next candidate theirs: counts only grow, so none of them is
        admitted again, and they are dropped. `cut`, when given, is one an
        earlier check left that every valid count obeys: the first round's
        descent starts no higher than below(cut), as if a check of its
        point had left that cut.
        """
        while True:
            start = self.point if cut is None else min(self.point, self.below(cut))
            found = _descend(net, start, self.targets_at, self.below, witness)
            if found is None:
                return None
            good, self.counts, witness = found
            self.room -= good
            if good == self.point:
                return witness
            for key in (net.cut if good < start else cut).groups:
                self.at.pop(key, None)
            cut = None
            self.point = self._round()


def choice_flow(
    instance: Instance,
    delta_star: Optional[TargetVector] = None,
    *,
    alpha: Optional[Ratio] = None,
    start: Optional[OptimalFlow] = None,
) -> ChoiceResult:
    """Maximum balanced selection via batched validity checks on one solve.

    delta_star must be the instance's crucial vector (recomputed when omitted;
    validity of the supplied vector is checked, full optimality is the
    caller's contract). Each group is seeded with its top delta students; the
    rest are then offered in priority order, and one is admitted whenever a
    maximal-diversity flow exists with its group's bound raised by one.
    The checks run on the engine the engine rule picks (see engine): on the
    type lattice a call builds no network and makes no solve; on the network
    every check reroutes its one optimum (see check_validity_flow), so a
    call makes a single min-cost flow solve however many checks it makes.

    That walk is computed without one check per student. Validity is
    downward closed in the bounds, so a round admits the longest valid
    prefix of the live candidates in priority order, found as alpha is (see
    _descend and _Walk): check the longest prefix that fits in F*, and
    after a failed check move to the longest whose counts over the cut's
    groups fit its bound. The prefix that holds leaves those groups at the
    bound with the next candidate theirs; counts only grow, so they are
    dead and dropped. Each round drops a group, and the walk makes no
    checks once the targets fill F*; on 3,000 hard-regime students a call
    made 4 checks in all. A round whose descent gets back to its starting
    counts, known valid, takes their witness without a check. On the
    network the signature is read from the witness flow of the last check
    that held, which meets exactly the final counts, so no check is
    repeated; on the lattice it is s*.

    When the call computes its own crucial vector, the walk starts where
    the alpha search would: at beta, the largest candidate ratio whose
    targets fit in F*. Its first round checks beta's targets plus the
    longest prefix of live candidates that fits, and then shorter prefixes,
    down to beta's targets themselves, which are not yet known valid. Once
    a check holds, beta's targets, which it meets, are valid too, so alpha
    is beta and the walk goes on as from any targets: when the first check
    holds, the choice takes that one check. When a cut of the round breaks
    beta's targets themselves, alpha is below beta: the alpha search
    descends over ratios from that cut, and a fresh walk starts from
    alpha's targets, its first round no higher than that cut allows, so
    beta's targets are not checked again.

    On the network the result's `witness` is that flow, with the potentials
    of the optimum it was rerouted from (see check_validity_flow); on the
    lattice it is None, and `start` is not read. Passed as `start` to a
    choice over a restriction of the same instance that keeps every
    selected student, it is that choice's optimum, with no min-cost flow
    solve, when it already carries min(|S|, q) units and the potentials
    certify it there (see min_cost_max_flow); otherwise the solve starts
    from zero. The result is the same either way.
    """
    net = engine(instance, start)
    bound = net.value
    keys = instance.group_keys()
    positions = instance.member_positions()
    if delta_star is None:
        beta, ratio_targets, ratio_below = _ratio_search(instance, bound)
        walk = _Walk(instance, ratio_targets(beta), bound)
        alpha, witness = beta, walk.run(net, None)
        if witness is None:
            # beta's targets break the cut of the walk's last check, so the
            # fresh walk starts under that cut, not at beta's targets again
            cut = net.cut
            alpha, targets, witness = _descend(
                net, ratio_below(cut), ratio_targets, ratio_below
            )
            walk = _Walk(instance, targets, bound)
            witness = walk.run(net, witness, cut)
    else:
        # unknown keys stay in, so the validity check rejects them
        targets = dict.fromkeys(keys, 0)
        targets.update((key, int(v)) for key, v in delta_star.items())
        witness = net.check(targets)
        if witness is None:
            raise ValueError("delta_star is not a valid target vector")
        walk = _Walk(instance, targets, bound)
        witness = walk.run(net, witness)
        if alpha is None:
            alpha = min_count_ratio(instance, targets)
    counts = walk.counts

    # each group's selected students are its first counts[key] members
    priority = instance.priority
    selected = frozenset(
        chain.from_iterable(
            map(priority.__getitem__, members[: counts[key]])
            for key, members in zip(keys, positions)
        )
    )
    if len(selected) != min(len(instance.priority), instance.capacity):
        raise InternalInvariantError("selection is wasteful")
    if net.counts(witness) != counts:
        raise InternalInvariantError("witness does not carry the selection")
    return ChoiceResult(
        selected=selected,
        per_group_counts=counts,
        signature=net.signature(witness),
        alpha=alpha,
        targets=walk.targets,
        witness=witness if isinstance(net, FlowNetwork) else None,
    )


def solve(instance: Instance) -> ChoiceResult:
    """The balanced choice of an instance: choice_flow with its own crucial
    vector."""
    return choice_flow(instance)


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
