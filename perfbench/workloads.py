"""Seeded inputs for the benchmark's workloads.

Each function below turns a seed into the JSON payload of one input file
and the seconds it spent in ``generator.generate_instance``. The regime a
workload stands for is built into its construction, never into the choice of
seed:

- ``solve-hard``: rank-1 quotas reserve 95% of q for typed students, so the
  untyped group can take at most the 5% general share. That caps alpha near
  0.2, the crucial targets cover about 40% of q, and the greedy admission
  loop of ``flow.choice_flow`` fills the remaining ~60% one validity check
  at a time.
- ``solve-wide``: one odd member is dropped from every odd-sized group and
  q is half the students, so alpha = 1/2 makes every target an exact
  half of its group; the targets sum to q and the greedy loop admits no one.
  Small quotas (q / 4 per type in total) keep that selection maximally
  diverse. The cost sits in loading the file and in ``crucial_vector``.
- ``gda-market``: many schools share one student pool; every student ranks
  a few schools, drawn with skewed popularity so the popular schools reject
  and deferred acceptance runs for tens of rounds with hundreds of small
  ``choice_flow`` calls. The package has no multi-school generator, so the
  market is assembled here from seeded generator students.
"""

from __future__ import annotations

import random
import time
from typing import Any

from reserve_match import files
from reserve_match.generator import generate_instance
from reserve_match.model import Instance

TYPES = 3
HARD_STUDENTS = 8000
HARD_RESERVED_SHARE = 95  # percent of q held by rank-1 quotas
WIDE_STUDENTS = 20000
MARKET_STUDENTS = 2000
MARKET_SCHOOLS = 20
MARKET_CHOICES = 4
MARKET_SEAT_SHARE = 80  # percent of students that total capacity can hold

# Regime floors: a run whose input leaves its regime counts as failed.
HARD_MIN_GREEDY_SHARE = 0.5
WIDE_MAX_GREEDY_SHARE = 0.0
MARKET_MIN_CHOICE_CALLS = 100


def _students(num: int, seed: int) -> tuple[Instance, float]:
    start = time.perf_counter()
    base = generate_instance(num, TYPES, 1, seed)
    return base, time.perf_counter() - start


def solve_hard(seed: int) -> tuple[dict[str, Any], float]:
    base, gen_s = _students(HARD_STUDENTS, seed)
    capacity = HARD_STUDENTS // 2
    types = sorted(base.types)
    reserved = capacity * HARD_RESERVED_SHARE // 100
    quotas = {
        (t, 1): reserved // TYPES + (1 if i < reserved % TYPES else 0)
        for i, t in enumerate(types)
    }
    instance = Instance(base.students, capacity, base.priority, types, quotas)
    return files.instance_to_payload(instance), gen_s


def solve_wide(seed: int) -> tuple[dict[str, Any], float]:
    base, gen_s = _students(WIDE_STUDENTS, seed)
    last_of_group: dict[frozenset[str], str] = {}
    size_of_group: dict[frozenset[str], int] = {}
    for s in base.students:
        last_of_group[s.type_set] = s.id
        size_of_group[s.type_set] = size_of_group.get(s.type_set, 0) + 1
    drop = {
        last_of_group[key] for key, size in size_of_group.items() if size % 2
    }
    students = [s for s in base.students if s.id not in drop]
    priority = [sid for sid in base.priority if sid not in drop]
    capacity = len(students) // 2
    types = sorted(base.types)
    quotas = {(t, 1): capacity // (4 * TYPES) for t in types}
    instance = Instance(students, capacity, priority, types, quotas)
    return files.instance_to_payload(instance), gen_s


def gda_market(seed: int) -> tuple[dict[str, Any], float]:
    base, gen_s = _students(MARKET_STUDENTS, seed)
    rng = random.Random(f"gda-market/{seed}")
    ids = [s.id for s in base.students]
    types = sorted(base.types)
    capacity = MARKET_STUDENTS * MARKET_SEAT_SHARE // 100 // MARKET_SCHOOLS
    schools = []
    for i in range(MARKET_SCHOOLS):
        priority = ids[:]
        rng.shuffle(priority)
        schools.append(
            {
                "id": f"c{i:02d}",
                "capacity": capacity,
                "quotas": [
                    {"type": t, "rank": 1, "quota": capacity // (2 * TYPES)}
                    for t in types
                ],
                "priority": priority,
            }
        )
    names = [c["id"] for c in schools]
    popularity = [1.0 / (i + 1) ** 0.5 for i in range(MARKET_SCHOOLS)]
    preferences = {}
    for sid in ids:
        ranked: list[str] = []
        while len(ranked) < MARKET_CHOICES:
            pick = rng.choices(names, popularity)[0]
            if pick not in ranked:
                ranked.append(pick)
        preferences[sid] = ranked
    payload = {
        "types": types,
        "students": [
            {"id": s.id, "types": sorted(s.type_set)} for s in base.students
        ],
        "schools": schools,
        "preferences": preferences,
    }
    return payload, gen_s


def probe_spec(payload: dict[str, Any]) -> str:
    """SCHOOL:S1:S2 for ``gda --probe``: two mid-priority students of c00."""
    school = payload["schools"][0]
    order = school["priority"]
    return f"{school['id']}:{order[len(order) // 3]}:{order[2 * len(order) // 3]}"


# name -> (kind, input function); kind picks the commands the workload runs
WORKLOADS = {
    "solve-hard": ("solve", solve_hard),
    "solve-wide": ("solve", solve_wide),
    "gda-market": ("gda", gda_market),
}
