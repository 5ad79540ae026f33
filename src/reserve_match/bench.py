"""Certificate scaling benchmark.

Times the certificate the solve path uses, F* and the per-rank signature s*
(flow.build_network and flow.compute_certificate; group statistics are
precomputed), across student counts: the type lattice's greedy over its
type sets. It depends on groups, types and ranks only, so with those held
fixed the time should stay roughly flat as the number of students grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import flow
from .generator import generate_instance
from .model import Instance


@dataclass(frozen=True)
class BenchRow:
    """One measured size: certificate seconds, best of the repeats."""

    students: int
    groups: int
    flow_seconds: float


def bench_instance(instance: Instance, repeats: int = 3) -> float:
    """Best-of-repeats seconds for one certificate of the instance."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    instance.member_positions()
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        flow.compute_certificate(flow.build_network(instance))
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_bench(
    sizes: Sequence[int],
    num_types: int = 3,
    num_ranks: int = 2,
    seed: int = 2024,
    repeats: int = 3,
) -> list[BenchRow]:
    """Generate one instance per size and time its certificate."""
    rows = []
    for n in sizes:
        instance = generate_instance(n, num_types, num_ranks, seed)
        rows.append(
            BenchRow(
                students=n,
                groups=len(instance.group_keys()),
                flow_seconds=bench_instance(instance, repeats),
            )
        )
    return rows


def bench_payload(rows: Iterable[BenchRow]) -> dict:
    """Machine-readable table with the growth ratio against the smallest size."""
    listed = sorted(rows, key=lambda r: r.students)
    table = [
        {"students": r.students, "groups": r.groups, "flow_seconds": r.flow_seconds}
        for r in listed
    ]
    payload = {"backend_timings": table}
    if len(listed) >= 2 and listed[0].flow_seconds > 0:
        payload["flow_growth"] = listed[-1].flow_seconds / listed[0].flow_seconds
    return payload
