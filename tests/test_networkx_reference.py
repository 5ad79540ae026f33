"""F* and s* of the type lattice against an independent min-cost flow solver.

`flow._TypeLattice` gives F* and s* by Edmonds' greedy over the type sets,
with no flow at all. Here networkx's `max_flow_min_cost` (network simplex)
solves the reserve network, built from the Arc reference
(`reference_search.ArcNetwork`), and the two must agree on F*, on the
per-rank signature and on C*, the cost of s* under the rank-cost encoding,
at 8 to 1,024 groups. Skipped when networkx is not installed.
"""

from __future__ import annotations

import pytest
from reference_search import ArcNetwork, signature_cost

from reserve_match.flow import build_network
from reserve_match.generator import generate_instance

nx = pytest.importorskip("networkx")


@pytest.mark.parametrize(
    "students, types, ranks, seed, style, groups",
    [
        (400, 3, 2, 11, "uniform", 8),
        (2000, 5, 2, 12, "minmax", 32),
        (6000, 7, 3, 13, "uniform", 128),
        (20000, 8, 2, 14, "minmax", 256),
        (20000, 10, 2, 15, "uniform", 1024),
    ],
)
def test_optimum_matches_networkx(students, types, ranks, seed, style, groups):
    instance = generate_instance(students, types, ranks, seed, style)
    assert len(instance.groups()) == groups
    lattice = build_network(instance)

    ref = ArcNetwork(instance)
    graph = nx.DiGraph()
    for arc in ref.arcs:
        assert not graph.has_edge(arc.tail, arc.head)  # no parallel arcs
        graph.add_edge(arc.tail, arc.head, capacity=arc.capacity, weight=arc.cost)
    flows = nx.max_flow_min_cost(graph, ref.source, ref.sink)
    signature = [0] * ref.max_rank
    for (_t, j), a in ref.rank_arcs.items():
        signature[j - 1] += flows[ref.arcs[a].tail][ref.arcs[a].head]

    assert sum(flows[ref.source].values()) == lattice.value
    assert tuple(signature) == lattice.per_rank
    cost = signature_cost(lattice.per_rank, instance.capacity)
    assert nx.cost_of_flow(graph, flows) == cost
