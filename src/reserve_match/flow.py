"""Flow-network solver: exact min-cost max-flow over the four-layer reserve
network, validity checking, crucial-vector search and the choice function.

The network has one node per group, per type (including the general type) and
per (type, rank) seat class, plus a capacity node. Only type->class arcs carry
cost; the cost of rank i is chosen so that minimizing total cost over flows of
a fixed value maximizes the per-rank signature lexicographically.

A network is four flat int lists indexed by arc (tails, heads, capacities,
costs), which the solver and the validity checks read directly. Everything
but the group arcs depends only on the instance's types, quotas and
capacity, so it is laid out once per instance and every restriction of the
instance (each pool of a GDA school) inherits it.

Each network is solved once: the unconstrained min-cost max-flow f* and its
final Johnson potentials are kept on the network. A validity check (is there
a maximal-diversity flow giving every group at least its target?) is then a
small max-flow on the residual arcs of f* whose reduced cost is 0, because
those reroutes of f* are exactly the flows with f*'s value and cost (Ahuja,
Magnanti and Orlin, Network Flows, 1993, ch. 9: complementary slackness).
The alpha search and the greedy walk make their O(log n) checks each on that
one solve.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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


def signature_cost(signature: Signature, capacity: int) -> int:
    """Encoded cost of a signature: sum of per-rank counts times rank_cost."""
    r = len(signature)
    return sum(
        count * rank_cost(i, capacity, r)
        for i, count in enumerate(signature, start=1)
    )


@dataclass(frozen=True)
class FlowAssignment:
    """An integral flow: per-arc amounts plus its value and total cost."""

    value: int
    cost: int
    arc_flows: tuple[int, ...]


@dataclass(frozen=True)
class OptimalFlow(FlowAssignment):
    """A min-cost max-flow plus node potentials that prove it optimal: every
    arc of its residual graph has reduced cost
    cost + potentials[tail] - potentials[head] >= 0."""

    potentials: tuple[int, ...]


@dataclass(frozen=True)
class OptimalityCertificate:
    """Value and cost of a min-cost max-flow on the unconstrained network."""

    max_value: int
    min_cost: int


SOURCE = 0
SINK = 1


class _SeatLayout:
    """The part of the reserve network that depends only on an instance's
    types, quotas and capacity: the type, seat-class and hub nodes and the
    type->class, class->hub and hub->sink arcs with their rank costs.

    Arc indices here count from the first such arc; a network places these
    arcs after its group arcs. FlowNetwork computes it once per instance and
    keeps it on the instance's FixedPart, which every restriction shares.
    """

    def __init__(self, instance: Instance) -> None:
        self.max_rank = max_rank = instance.max_rank
        capacity = instance.capacity
        all_types = sorted(instance.types) + [GENERAL_TYPE]
        self.type_node = {t: 2 + i for i, t in enumerate(all_types)}
        first_class = 2 + len(all_types)
        class_node = {
            (t, j): first_class + i * max_rank + j - 1
            for i, t in enumerate(all_types)
            for j in range(1, max_rank + 1)
        }
        hub = first_class + len(class_node)
        self.first_group_node = hub + 1
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.capacities: list[int] = []
        self.costs: list[int] = []
        self.rank_arcs: dict[tuple[str, int], int] = {}
        self.seat_exit_arcs: dict[tuple[str, int], int] = {}

        def add_arc(tail: int, head: int, cap: int, cost: int) -> int:
            self.tails.append(tail)
            self.heads.append(head)
            self.capacities.append(cap)
            self.costs.append(cost)
            return len(self.tails) - 1

        for (t, j), node in class_node.items():
            if t == GENERAL_TYPE:
                cap = capacity if j == max_rank else 0
            else:
                cap = instance.quotas.get((t, j), 0)
            cost = rank_cost(j, capacity, max_rank)
            self.rank_arcs[(t, j)] = add_arc(self.type_node[t], node, cap, cost)
            self.seat_exit_arcs[(t, j)] = add_arc(node, hub, cap, 0)
        self.q_sink_arc = add_arc(hub, SINK, capacity, 0)


class FlowNetwork:
    """The four-layer reserve network for one instance, as four flat lists
    indexed by arc: tails, heads, capacities and costs.

    Node order: source 0, sink 1, one node per type (sorted, then the
    general type), one per (type, rank) seat class, the capacity hub Q,
    then one per group. Arc order: source->group and group->type arcs per
    group in lexicographic group order, then type->class and class->Q arcs
    per type and rank, then Q->sink. Zero-capacity arcs are kept so the
    structure mirrors the construction exactly. Everything after the group
    arcs comes from the instance's seat layout, which is built once per
    instance and inherited by its restrictions, so a network for a pool
    adds only its group arcs. The unconstrained optimum is solved on first
    use and kept (see _optimum), so every validity check on one network
    shares a single min-cost flow solve.
    """

    source = SOURCE
    sink = SINK

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        fixed = instance.fixed
        if fixed.network is None:
            fixed.network = _SeatLayout(instance)
        layout = fixed.network
        self.max_rank = layout.max_rank
        self._optimum: Optional[_Optimum] = None

        tails: list[int] = []
        heads: list[int] = []
        capacities: list[int] = []
        self.group_arcs: dict[GroupKey, int] = {}
        self.group_type_arcs: dict[tuple[GroupKey, str], int] = {}
        type_node = layout.type_node
        u = layout.first_group_node
        for g in instance.groups():
            size = len(g.members)
            self.group_arcs[g.key] = len(tails)
            tails.append(SOURCE)
            heads.append(u)
            capacities.append(size)
            for t in g.key + (GENERAL_TYPE,):
                self.group_type_arcs[(g.key, t)] = len(tails)
                tails.append(u)
                heads.append(type_node[t])
                capacities.append(size)
            u += 1
        self.node_count = u
        offset = len(tails)
        self.tails = tails + layout.tails
        self.heads = heads + layout.heads
        self.capacities = capacities + layout.capacities
        self.costs = [0] * offset + layout.costs
        self.rank_arcs = {k: offset + e for k, e in layout.rank_arcs.items()}
        self.seat_exit_arcs = {
            k: offset + e for k, e in layout.seat_exit_arcs.items()
        }
        self.q_sink_arc = offset + layout.q_sink_arc


def build_network(instance: Instance) -> FlowNetwork:
    return FlowNetwork(instance)


class _MinCostFlow:
    """Successive shortest paths with Johnson potentials on integer data.

    Arc e of the given lists becomes residual edge 2e and its reverse edge
    2e + 1, so the flow on arc e is the residual capacity of edge 2e + 1.
    All original costs are non-negative, so potentials start at zero. After
    each Dijkstra pass the potential update is capped at the target distance,
    which keeps reduced costs non-negative for every arc that still has
    residual capacity, including across phases with different endpoints.
    """

    def __init__(
        self,
        n: int,
        tails: list[int],
        heads: list[int],
        capacities: list[int],
        costs: list[int],
    ) -> None:
        self.n = n
        m = len(tails)
        self.to = [0] * (2 * m)
        self.to[0::2] = heads
        self.to[1::2] = tails
        self.cap = [0] * (2 * m)
        self.cap[0::2] = capacities
        self.cost = [0] * (2 * m)
        self.cost[0::2] = costs
        self.cost[1::2] = [-c for c in costs]
        self.adjacent: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(zip(tails, heads)):
            self.adjacent[u].append(2 * e)
            self.adjacent[v].append(2 * e + 1)
        self.potential = [0] * n

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


def min_cost_max_flow(network: FlowNetwork) -> OptimalFlow:
    """Integral min-cost max-flow from source to sink, with the final
    potentials of the successive-shortest-path solve."""
    solver = _MinCostFlow(
        network.node_count,
        network.tails,
        network.heads,
        network.capacities,
        network.costs,
    )
    value, cost = solver.run(SOURCE, SINK)
    return OptimalFlow(
        value=value,
        cost=cost,
        arc_flows=solver.arc_flows(),
        potentials=tuple(solver.potential),
    )


class _Optimum:
    """The unconstrained optimum f* of one network and the part of its
    residual graph that a validity check may use.

    Under f*'s potentials every residual arc has reduced cost >= 0, and a
    circulation's cost is the sum of its reduced costs. So a flow of value
    F* costs C* exactly when its difference from f* is a circulation on
    residual arcs of reduced cost 0 (the admissible arcs). `steps[v]` lists
    (arc, other end, forward) for every admissible arc at node v that does
    not touch the source or the sink; `groups` holds, per group, its key,
    node, flow in f* and whether its source arc is admissible (only then
    may the group's flow move); `group_arc` maps a group node to that arc.
    """

    def __init__(self, network: FlowNetwork, best: OptimalFlow) -> None:
        self.flow = best
        pot = best.potentials
        self.capacity = network.capacities
        self.cost = network.costs
        self.steps: list[list[tuple[int, int, bool]]] = [
            [] for _ in range(network.node_count)
        ]
        arcs = zip(network.tails, network.heads, network.costs)
        for e, (u, v, c) in enumerate(arcs):
            if u == SOURCE or v == SINK:
                continue
            if c + pot[u] - pot[v] == 0:
                self.steps[u].append((e, v, True))
                self.steps[v].append((e, u, False))
        self.groups: list[tuple[GroupKey, int, int, bool]] = []
        self.group_arc: dict[int, int] = {}
        for key, e in network.group_arcs.items():
            node = network.heads[e]
            free = pot[SOURCE] == pot[node]
            self.groups.append((key, node, best.arc_flows[e], free))
            self.group_arc[node] = e

    def reroute(self, targets: TargetVector) -> Optional[FlowAssignment]:
        """f* plus a smallest admissible circulation that lifts every group
        to its target, or None if none exists.

        A simple cycle of such a circulation passes the source once: it
        raises one group and lowers another. Cycles that raise a group
        already at its target can be dropped (a conformal decomposition
        never lowers that group), so this is a max-flow problem from the
        deficit groups (t_u - f*_u units each, admissible source arc
        required) to the groups above their targets (f*_v - t_v each,
        admissible source arc required) over the admissible arcs.
        Breadth-first augmenting paths solve it exactly.
        """
        need: dict[int, int] = {}
        spare: dict[int, int] = {}
        for key, node, has, free in self.groups:
            want = targets.get(key, 0)
            if want > has:
                # never true with the solver's own potentials, which keep
                # every unsaturated source arc at reduced cost 0; exactness
                # needs it for optimal potentials in general
                if not free:
                    return None
                need[node] = want - has
            elif want < has and free:
                spare[node] = has - want
        if not need:
            return self.flow
        cap = self.capacity
        flows = list(self.flow.arc_flows)
        while need:
            prev: dict[int, Optional[tuple[int, bool, int]]] = dict.fromkeys(need)
            queue = list(need)
            for v in queue:
                if v in spare:
                    break
                for e, w, forward in self.steps[v]:
                    if w not in prev and (cap[e] - flows[e] if forward else flows[e]):
                        prev[w] = (e, forward, v)
                        queue.append(w)
            else:
                return None
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
            flows[self.group_arc[v]] += amount
            flows[self.group_arc[end]] -= amount
            need[v] -= amount
            if not need[v]:
                del need[v]
            spare[end] -= amount
            if not spare[end]:
                del spare[end]
        value = sum(flows[e] for e in self.group_arc.values())
        cost = sum(f * c for f, c in zip(flows, self.cost))
        if value != self.flow.value or cost != self.flow.cost:
            raise InternalInvariantError("rerouted flow left the optimum")
        return FlowAssignment(value=value, cost=cost, arc_flows=tuple(flows))


def _optimum(network: FlowNetwork) -> _Optimum:
    """The network's unconstrained optimum, solved on first use and kept."""
    if network._optimum is None:
        network._optimum = _Optimum(network, min_cost_max_flow(network))
    return network._optimum


def compute_certificate(network: FlowNetwork) -> OptimalityCertificate:
    """(F*, C*) of the unconstrained network; the maximal-diversity benchmark."""
    best = _optimum(network).flow
    instance = network.instance
    expected = min(len(instance.columns), instance.capacity)
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

    Validity means some flow of the unconstrained optimum's value F* and
    cost C* carries at least each group's target; feasibility alone would
    not preserve maximal diversity. The check needs no new min-cost solve:
    it starts from the network's kept optimum f* and its potentials, and
    routes each group's shortfall t_u - f*_u from groups above their
    targets along residual arcs of reduced cost 0 (see _Optimum). Those
    reroutes are exactly the flows of value F* and cost C*, so the verdict
    is exact. The witness is f* itself when f* already meets the targets,
    and otherwise f* plus the rerouted units.
    """
    net = network if network is not None else build_network(instance)
    unknown = set(targets) - net.group_arcs.keys()
    if unknown:
        raise ValueError(f"targets for unknown groups: {sorted(unknown)}")
    if any(v < 0 for v in targets.values()):
        raise ValueError("negative target")
    if cert is None:
        cert = compute_certificate(net)
    if any(
        want > net.capacities[net.group_arcs[key]] for key, want in targets.items()
    ):
        return None
    if sum(targets.values()) > cert.max_value:
        return None
    return _optimum(net).reroute(targets)


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
    sized = [(g.key, g.size) for g in instance.groups()]

    def targets_at(beta: Fraction) -> dict[GroupKey, int]:
        num, den = beta.numerator, beta.denominator
        return {key: -(-num * size // den) for key, size in sized}

    def feasible(beta: Fraction) -> bool:
        witness = check_validity_flow(
            instance, targets_at(beta), network=net, cert=cert
        )
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
    """Maximum balanced selection via batched validity checks on one solve.

    delta_star must be the instance's crucial vector (recomputed when omitted;
    validity of the supplied vector is checked, full optimality is the
    caller's contract). Each group is seeded with its top delta students; the
    rest are then offered in priority order, and one is admitted whenever a
    maximal-diversity flow exists with its group's bound raised by one.
    Every check reroutes the network's one optimum (see check_validity_flow),
    so a call makes a single min-cost flow solve however many checks it
    makes.

    That walk is computed without one check per student. Validity is
    downward closed in the bounds, so once a group's next member is rejected
    the group is dead: its count never moves again and every later attempt
    faces componentwise larger bounds. The walk therefore admits the longest
    valid prefix of the remaining candidates, drops the group of the first
    candidate past it, and repeats on what follows. Each prefix is found by
    galloping (1, 2, 4, ... candidates, capped at the seats left below F*)
    and then bisecting. Each group's candidate priority positions are sliced
    once per call from the instance's member positions; prefix counts are
    read from them by bisect, and a dead group is dropped from the lists
    without rescanning the rest. That is at most G + 1 rounds of O(log n)
    checks for G groups and n remaining students, and no checks once the
    targets fill the certificate's flow value. The signature is read from
    the witness flow of the last check that held, which meets exactly the
    final counts, so no check is repeated.
    """
    net = build_network(instance)
    cert = compute_certificate(net)
    groups = instance.groups()
    if delta_star is None:
        alpha, targets, witness = _crucial_search(instance, net, cert)
    else:
        # unknown keys stay in, so the validity check rejects them
        targets = {g.key: 0 for g in groups}
        targets.update((key, int(v)) for key, v in delta_star.items())
        witness = check_validity_flow(instance, targets, network=net, cert=cert)
        if witness is None:
            raise ValueError("delta_star is not a valid target vector")
    if alpha is None:
        alpha = min_count_ratio(instance, targets)

    counts = dict(targets)
    room = cert.max_value - sum(counts.values())
    # priority positions of each live group's candidates (its members past
    # the target); a round admits a prefix of the live candidates from `start`
    at = {
        g.key: positions[targets[g.key] :]
        for g, positions in zip(groups, instance.member_positions() if room else ())
    }
    start = 0
    while room:
        base = counts
        first = {key: bisect_left(pos, start) for key, pos in at.items()}
        left = sum(len(pos) - first[key] for key, pos in at.items())
        if not left:
            break

        def end_of(p: int) -> int:
            """Smallest position x with p live candidates in [start, x)."""
            lo, hi = start, len(instance.priority)
            while lo < hi:
                mid = (lo + hi) // 2
                seen = sum(bisect_left(pos, mid) - first[k] for k, pos in at.items())
                if seen >= p:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        def admit(p: int) -> dict[GroupKey, int]:
            x = end_of(p)
            return {
                key: count + (bisect_left(at[key], x) - first[key] if key in at else 0)
                for key, count in base.items()
            }

        witnesses = {0: witness}  # witness flow of each prefix that held

        def holds(p: int) -> bool:
            found = check_validity_flow(instance, admit(p), network=net, cert=cert)
            if found is not None:
                witnesses[p] = found
            return found is not None

        good = _gallop_last(min(room, left), holds)
        counts, witness = admit(good), witnesses[good]
        room -= good
        if good == left:
            break
        past = end_of(good + 1) - 1  # the first live candidate past the prefix
        for key, pos in at.items():
            i = bisect_left(pos, past)
            if i < len(pos) and pos[i] == past:
                break
        del at[key]
        start = past + 1

    selected = frozenset(
        chain.from_iterable(g.members[: counts[g.key]] for g in groups)
    )
    if len(selected) != min(len(instance.columns), instance.capacity):
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

    # each class's holders as (priority position, id), so sorting them
    # orders the class by priority
    class_holders: dict[tuple[str, int], list[tuple[int, str]]] = {}
    for g, positions in zip(groups, instance.member_positions()):
        ordered = sorted(slots[g.key], key=lambda tj: (tj[1], tj[0]))
        for held, (t, j) in zip(zip(positions, g.members), ordered):
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
        flows[net.seat_exit_arcs[(seat.type, seat.rank)]] += 1
        flows[net.q_sink_arc] += 1
    if any(f > cap for f, cap in zip(flows, net.capacities)):
        raise ValueError("matching overfills an arc capacity")
    cost = sum(f * c for f, c in zip(flows, net.costs))
    return FlowAssignment(value=len(matching), cost=cost, arc_flows=tuple(flows))
