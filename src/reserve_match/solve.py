"""One-call solver entry point."""

from __future__ import annotations

from . import flow
from .model import ChoiceResult, Instance


def solve(instance: Instance) -> ChoiceResult:
    """Run the balanced choice function on the group-level flow network."""
    return flow.choice_flow(instance)
