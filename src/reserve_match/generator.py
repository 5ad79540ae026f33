"""Seeded pseudo-random instance generation.

The same (parameters, seed) pair always yields the same instance: students
are drawn first, then the priority shuffle, then the quotas, all from one
seeded generator. Each student draws one ``random() < 0.5`` per type, in
type order, student after student. The draws stream straight into
``StudentColumns``: each student's draws form one pattern, each
distinct pattern is turned into its type names once, and no record or set
is made per student (the instance's ``students`` view of records is a
boundary view, built only if a record-taking caller asks). quota_style
"uniform" scatters counts over every rank below the top; "minmax" models
minimum guarantees at rank 1 plus, when the rank budget allows,
maximum-style quotas at the next-to-last rank.
"""

from __future__ import annotations

import random
from itertools import compress, islice
from typing import Optional

from .model import Instance, StudentColumns

QUOTA_STYLES = ("uniform", "minmax")


class _TypeNames(dict):
    """Draw pattern -> the names of the types it drew, made once a pattern.

    A pattern is the bytes of one student's draws, one byte a type, so even
    when every student draws a new pattern the keys hold a byte a draw.
    """

    def __init__(self, types: list[str]) -> None:
        super().__init__()
        self.types = types

    def __missing__(self, pattern: bytes) -> tuple[str, ...]:
        names = self[pattern] = tuple(compress(self.types, pattern))
        return names


def generate_instance(
    num_students: int,
    num_types: int,
    num_ranks: int,
    seed: int,
    quota_style: str = "uniform",
    capacity: Optional[int] = None,
) -> Instance:
    """Build a reproducible instance from generation parameters."""
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
    ids = list(map(f"s%0{width}d".__mod__, range(num_students)))
    # one endless stream of random() < 0.5 draws; zip over num_types
    # references to it cuts one pattern per student, draws in type order
    draws = map((0.5).__gt__, iter(rng.random, None))
    patterns = map(bytes, islice(zip(*[draws] * num_types), num_students))
    columns = StudentColumns.intern(ids, map(_TypeNames(types).__getitem__, patterns))
    priority = ids[:]
    rng.shuffle(priority)
    if capacity is None:
        capacity = max(1, num_students // 2) if num_students else 0
    quotas = _draw_quotas(rng, types, num_ranks, capacity, quota_style)
    return Instance(
        students=columns,
        capacity=capacity,
        priority=priority,
        types=types,
        quotas=quotas,
    )


def _draw_quotas(
    rng: random.Random,
    types: list[str],
    num_ranks: int,
    capacity: int,
    quota_style: str,
) -> dict[tuple[str, int], int]:
    quota_ranks = list(range(1, num_ranks))
    if not quota_ranks:
        return {}
    base = max(1, capacity // max(1, len(types) * len(quota_ranks)))
    quotas: dict[tuple[str, int], int] = {}
    if quota_style == "uniform":
        for t in types:
            for rank in quota_ranks:
                count = rng.randint(0, base)
                if count:
                    quotas[(t, rank)] = count
    else:
        for t in types:
            quotas[(t, 1)] = rng.randint(1, base)
        if num_ranks >= 3:
            for t in types:
                quotas[(t, num_ranks - 1)] = rng.randint(1, base)
    return quotas
