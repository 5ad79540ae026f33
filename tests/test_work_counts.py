"""Pinned work counts of the choice path.

Validity checks, solver builds and Dijkstra passes on a fixed set of
inputs: the golden corpus's hard-regime school, two hard-regime schools
whose first check fails, and the benchmark's solve-hard and gda-market
inputs at seed 1. A change that lowers a count updates its pin; one that
raises a count says why. Deferred acceptance's counts on
`seeded_market(600, 2)` are pinned in test_warm_start.py.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Any, Callable

import pytest
from factories import hard_regime_school
from test_golden import CORPUS

from reserve_match import flow
from reserve_match.files import instance_from_payload, multi_from_payload
from reserve_match.flow import choice_flow
from reserve_match.gda import run_gda
from reserve_match.model import Instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _counted(monkeypatch: Any) -> Counter:
    """Count validity checks, solver builds and Dijkstra passes from now
    on."""
    counts: Counter = Counter()

    def counting(name: str, original: Callable) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        flow, "check_validity_flow", counting("checks", flow.check_validity_flow)
    )
    for attr, name in (("__init__", "builds"), ("_augment", "passes")):
        original = getattr(flow._MinCostFlow, attr)
        monkeypatch.setattr(flow._MinCostFlow, attr, counting(name, original))
    return counts


def _workload(monkeypatch: Any, name: str) -> dict:
    """A benchmark workload's input payload at seed 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    payload, _generate_s = getattr(workloads, name)(1)
    return payload


@pytest.mark.parametrize(
    "make, checks",
    [
        (CORPUS["hard-1500-reserved-92"][0], 4),
        (lambda: hard_regime_school(100, 8, 85), 3),
        (lambda: hard_regime_school(60, 2, 90), 5),
    ],
    ids=["hard-1500-reserved-92", "hard-100-8-85", "hard-60-2-90"],
)
def test_checks_of_one_choice(monkeypatch, make: Callable[[], Instance], checks):
    instance = make()
    counts = _counted(monkeypatch)
    choice_flow(instance)
    assert counts["checks"] == checks
    assert counts["builds"] == 1


def test_checks_of_the_solve_hard_workload(monkeypatch):
    instance = instance_from_payload(_workload(monkeypatch, "solve_hard"))
    counts = _counted(monkeypatch)
    choice_flow(instance)
    assert counts["checks"] == 5


def test_work_of_the_gda_market_workload(monkeypatch):
    multi = multi_from_payload(_workload(monkeypatch, "gda_market"))
    counts = _counted(monkeypatch)
    run_gda(multi)
    assert counts == {"checks": 292, "builds": 20, "passes": 181}
