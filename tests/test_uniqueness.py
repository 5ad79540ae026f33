"""The uniqueness theorem as a test oracle above the oracle's budget.

Exactly one selection satisfies all four axioms, so every one-for-one swap
of a `solve` output must fail `verify`. The enumeration oracle stops at 12
students; here the structural verifier decides, at 10^3 to 10^4 students
with both quota styles and on a hard-regime school. Swaps: for every
ordered pair of groups (a group with itself included), the top unselected
member of one for the bottom selected member of the other, plus random
pairs. Three types keep G <= 8 groups, since each swap's `verify` makes
O(G^2) validity checks.
"""

from __future__ import annotations

import random

import pytest
from factories import hard_regime_school

from reserve_match.flow import solve
from reserve_match.generator import generate_instance
from reserve_match.oracle import OracleBudget
from reserve_match.verify import MODE_STRUCTURAL, verify_balanced_and_jef

STRUCTURAL = OracleBudget(max_students=0, max_seats=0, max_enumerations=0)
RANDOM_SWAPS = 20

SCHOOLS = {
    "uniform-1000": lambda: generate_instance(1000, 3, 2, 901),
    "minmax-1000-r3": lambda: generate_instance(1000, 3, 3, 902, "minmax"),
    "uniform-10000": lambda: generate_instance(10000, 3, 2, 903),
    "minmax-10000": lambda: generate_instance(10000, 3, 2, 904, "minmax"),
    "hard-3000-reserved-98": lambda: hard_regime_school(3000, 308, 98),
}


@pytest.mark.parametrize("name", sorted(SCHOOLS))
def test_every_swap_of_the_solve_output_fails_verify(name):
    instance = SCHOOLS[name]()
    chosen = solve(instance).selected
    report = verify_balanced_and_jef(instance, chosen, STRUCTURAL)
    assert report.mode == MODE_STRUCTURAL and report.all_hold()

    swaps = set()
    groups = instance.groups()
    for g_in in groups:
        top = next((s for s in g_in.members if s not in chosen), None)
        for g_out in groups:
            bottom = next((s for s in reversed(g_out.members) if s in chosen), None)
            if top is not None and bottom is not None:
                swaps.add((top, bottom))
    rng = random.Random(name)
    outside = sorted(set(instance.priority) - chosen)
    inside = sorted(chosen)
    for _ in range(RANDOM_SWAPS):
        swaps.add((rng.choice(outside), rng.choice(inside)))
    assert len(swaps) > RANDOM_SWAPS

    for s_in, s_out in sorted(swaps):
        swapped = (chosen - {s_out}) | {s_in}
        report = verify_balanced_and_jef(instance, swapped, STRUCTURAL)
        assert not report.all_hold(), (s_in, s_out)
