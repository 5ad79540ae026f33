"""The benchmark's traced steps run against the package.

With tracing on, `perfbench/measure.py` does not go through the CLI: it calls
the package's public functions itself, in the CLI's order, so a change to
their names or signatures breaks only the traced run. These tests run those
steps with a tracer whose spans do nothing, on the solve-hard and gda-market
inputs at seed 1, and check that the command and its check exit 0 and that
the command writes the same bytes as the CLI.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

from reserve_match import cli, files

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import measure
    import workloads

    return SimpleNamespace(measure=measure, workloads=workloads)


@pytest.mark.parametrize(
    "workload, kind, check",
    [("solve_hard", "solve", "verify"), ("gda_market", "gda", "gda")],
)
def test_traced_steps_match_the_cli(perfbench, tmp_path, capsys, workload, kind, check):
    payload, _generate_s = getattr(perfbench.workloads, workload)(1)
    source = str(tmp_path / "input.json")
    files.write_text(files.dump_json(payload), source)
    plan = {"kind": kind, "input": source, "out": str(tmp_path / "traced.json")}
    if kind == "gda":
        plan["probe"] = perfbench.workloads.probe_spec(payload)
    stub = SimpleNamespace(span=lambda _name: nullcontext())

    command, check_step = perfbench.measure._traced_steps(plan, stub)
    assert command() == 0
    assert check_step() == 0

    out = str(tmp_path / "cli.json")
    assert cli.main([kind, source, "--out", out]) == 0
    if kind == "solve":
        assert cli.main([check, source, out]) == 0
    else:
        assert cli.main([check, source, "--probe", plan["probe"]]) == 0
    capsys.readouterr()
    assert Path(plan["out"]).read_bytes() == Path(out).read_bytes()
