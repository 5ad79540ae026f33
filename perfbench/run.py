"""End-to-end benchmark of reserve-match's ``solve``, ``verify`` and ``gda``.

    python3 perfbench/run.py --workload solve-hard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src``.

1. Set-up builds the workload's input file from the seed (see
   ``workloads.py``), several times, and reports the median as ``setup_s``.
2. A fresh measuring process (``measure.py``) runs the workload's command and
   its check through ``reserve_match.cli.main`` until ``--seconds`` have
   passed, one process, no extra threads, one call after another.
3. This process checks every output, prints the workload's shape, one sha256
   of the output and a table, and ends with one JSON line.

With ``--trace 1`` half the time goes to an untraced process and half to a
traced one; the JSON line then carries the per-layer metrics, and the table
shows each layer's self time and the tracing overhead. See README.md for the
metric, layer and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MEASURE_TIMEOUT_S = 150

END_TO_END = {
    "command_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "generator.generate_instance_s": "s",
    "files.read_s": "s",
    "files.validate_s": "s",
    "files.dump_s": "s",
    "files.out_bytes": "bytes",
    "model.instance_s": "s",
    "model.instance_builds": "count",
    "model.groups_s": "s",
    "model.groups": "count",
    "flow.certificate_s": "s",
    "flow.crucial_vector_s": "s",
    "flow.crucial_vector_checks": "count",
    "flow.choice_calls": "count",
    "flow.choice_s": "s",
    "flow.greedy_s": "s",
    "flow.greedy_checks": "count",
    "flow.admitted": "count",
    "flow.admit_ratio": "ratio",
    "flow.greedy_share": "ratio",
    "flow.check_ms": "ms",
    "flow.mcmf_solves": "count",
    "gda.rounds": "count",
    "check.crucial_vector_s": "s",
    "check.validity_checks": "count",
}
# Per-layer values that depend only on the input; they must repeat exactly.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "ratio")}


class Run:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(why)


def setup(
    name: str, seed: int, work: Path
) -> tuple[dict[str, Any], list[float], list[float]]:
    """Write the input file SETUP_REPEATS times.

    Returns the plan and payload, the rescaled set-up times and the rescaled
    seconds spent in ``generate_instance``.
    """
    from reserve_match import files

    import reference
    import workloads

    kind, build = workloads.WORKLOADS[name]
    path = work / "input.json"
    setup_s, generate_s = [], []
    texts = set()
    ref_before = reference.loop_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        payload, gen_s = build(seed)
        text = files.dump_json(payload)
        files.write_text(text, str(path))
        wall = time.perf_counter() - start
        ref_after = reference.loop_seconds()
        setup_s.append(reference.rescale(wall, ref_before, ref_after))
        generate_s.append(reference.rescale(gen_s, ref_before, ref_after))
        texts.add(text)
        ref_before = ref_after
    if len(texts) != 1:
        raise RuntimeError(f"set-up of {name} is not deterministic for seed {seed}")
    plan = {
        "kind": kind,
        "input": str(path),
        "out": str(work / "out.json"),
        "spans": str(WORK / f"spans-{name}-s{seed}.json"),
    }
    if kind == "gda":
        plan["probe"] = workloads.probe_spec(payload)
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return {"plan": plan, "payload": payload}, setup_s, generate_s


def measure(work: Path, seconds: float, trace: bool) -> dict[str, Any]:
    """Run measure.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(work / "plan.json"),
         str(seconds), "1" if trace else "0"],
        env=env, stdout=subprocess.PIPE, timeout=MEASURE_TIMEOUT_S, text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_solve(
    state: dict[str, Any], out: dict[str, Any], name: str
) -> tuple[list[str], dict[str, Any]]:
    """Problems with a solve result, and the workload's shape."""
    import workloads

    payload = state["payload"]
    ids = {s["id"] for s in payload["students"]}
    q = payload["capacity"]
    selected = out["selected"]
    problems = []
    if len(set(selected)) != len(selected) or not set(selected) <= ids:
        problems.append("selected ids repeat or are unknown")
    if len(selected) != min(len(ids), q):
        problems.append("selection is wasteful")
    targeted = sum(out["targets"].values())
    share = (len(selected) - targeted) / len(selected) if selected else 0.0
    if name == "solve-hard" and share < workloads.HARD_MIN_GREEDY_SHARE:
        problems.append(f"greedy share {share:.4f} below the hard-regime floor")
    if name == "solve-wide" and share > workloads.WIDE_MAX_GREEDY_SHARE:
        problems.append(f"greedy share {share:.4f} above the wide-regime ceiling")
    shape = {
        "students": len(ids),
        "groups": len(out["per_group"]),
        "q": q,
        "sum_targets": targeted,
        "greedy_share": round(share, 6),
        "alpha": out["alpha"],
    }
    return problems, shape


def check_gda(
    state: dict[str, Any], out: dict[str, Any], name: str
) -> tuple[list[str], dict[str, Any]]:
    """Problems with a GDA result, and the workload's shape."""
    import workloads

    payload = state["payload"]
    capacity = {c["id"]: c["capacity"] for c in payload["schools"]}
    prefs = payload["preferences"]
    problems = []
    held: list[str] = []
    for cid, children in out["matched"].items():
        if len(children) > capacity[cid]:
            problems.append(f"school {cid} over capacity")
        for sid in children:
            if cid not in prefs.get(sid, ()):
                problems.append(f"{sid} matched to {cid} off their list")
        held.extend(children)
    if len(set(held)) != len(held):
        problems.append("a student is held twice")
    if set(held) | set(out["unmatched"]) != {s["id"] for s in payload["students"]}:
        problems.append("matched and unmatched do not cover the students")
    calls = sum(len(r["pools"]) for r in out["rounds"])
    if calls < workloads.MARKET_MIN_CHOICE_CALLS:
        problems.append(f"{calls} choice calls, below the market floor")
    shape = {
        "students": len(payload["students"]),
        "groups": len({tuple(s["types"]) for s in payload["students"]}),
        "schools": len(capacity),
        "q": sum(capacity.values()),
        "matched": len(held),
        "rounds": len(out["rounds"]),
        "choice_calls": calls,
    }
    return problems[:5], shape


def judge(
    name: str, state: dict[str, Any], reports: list[dict[str, Any]], run: Run
) -> tuple[dict[str, Any], str]:
    """Count every command and check as one operation; return shape and sha.

    The output file left by the last iteration is checked once; every
    iteration's output must hash the same as it.
    """
    plan = state["plan"]
    out_path = Path(plan["out"])
    if out_path.is_file():
        text = out_path.read_text(encoding="utf-8")
        checker = check_solve if plan["kind"] == "solve" else check_gda
        problems, shape = checker(state, json.loads(text), name)
        shape["input_bytes"] = Path(plan["input"]).stat().st_size
        shape["output_bytes"] = len(text.encode("utf-8"))
    else:
        problems, shape = ["no output file"], {}
    rows = [row for report in reports for row in report["iterations"]]
    final_sha = rows[-1]["out_sha256"]
    # only untraced checks print; what they print must repeat
    check_texts = {row["check_stdout"] for row in rows if row["check_stdout"]}
    verdicts = {row["check_rc"] for row in rows}
    for row in rows:
        run.op(
            row["command_rc"] == 0 and row["out_sha256"] == final_sha
            and not problems,
            f"command exit {row['command_rc']}, sha {row['out_sha256']}, "
            f"{problems}",
        )
        if plan["kind"] == "solve":
            ok = row["check_rc"] == 0
        else:
            # a probe may find a violation (exit 1); the verdict must repeat
            ok = row["check_rc"] in (0, 1) and len(verdicts) == 1
        run.op(ok and len(check_texts) <= 1, f"check exit {row['check_rc']}")
    return shape, final_sha or "none"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(
    untraced: list[dict[str, Any]], peak_rss_mb: float, setup_s: list[float]
) -> dict[str, float]:
    """Medians of the timed iterations and set-ups; prints the table."""
    samples = {
        "command_s": [r["command_s"] for r in untraced],
        "check_s": [r["check_s"] for r in untraced],
        "setup_s": setup_s,
    }
    metrics = {key: statistics.median(v) for key, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    for key, unit in END_TO_END.items():
        if key in samples:
            q1, q3 = quartiles(samples[key])
            note = f"median of {len(samples[key])}, q1 {q1:.4f}, q3 {q3:.4f}"
        else:
            note = "one measuring process"
        if key in ("command_s", "check_s"):
            wall_key = key.replace("_s", "_wall_s")
            wall = statistics.median(r[wall_key] for r in untraced)
            note += f"; unscaled wall {wall:.4f} s"
        print(f"  {key:<14} {metrics[key]:>12.4f} {unit:<5} ({note})")
    return metrics


def per_layer(
    name: str,
    traced: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    generate_s: list[float],
    shape: dict[str, Any],
    run: Run,
) -> dict[str, float]:
    """Medians of the traced iterations; counts must repeat exactly."""
    metrics = {
        "generator.generate_instance_s": statistics.median(generate_s),
        "files.out_bytes": shape.get("output_bytes", 0),
    }
    for key in PER_LAYER:
        if key in metrics:
            continue
        values = [r["metrics"][key] for r in traced]
        if key in EXACT:
            run.op(len(set(values)) == 1, f"{key} did not repeat: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    print_layers(traced, untraced, metrics, name)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    work = WORK / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        state, setup_s, generate_s = setup(name, seed, work)
        if trace:
            reports = [measure(work, seconds / 2, False),
                       measure(work, seconds / 2, True)]
        else:
            reports = [measure(work, seconds, False)]
        run = Run()
        shape, sha = judge(name, state, reports, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("shape: " + json.dumps(shape, sort_keys=True))
    print(f"sha256 {name} seed {seed}: {sha}")
    timed = [[r for r in rep["iterations"] if not r["warmup"]] for rep in reports]
    if trace:
        metrics = per_layer(name, timed[1], timed[0], generate_s, shape, run)
        units = PER_LAYER
    else:
        metrics = end_to_end(timed[0], reports[0]["peak_rss_mb"], setup_s)
        units = END_TO_END
    failed = len(run.failures)
    print(f"  {'error_rate':<14} {failed / run.attempted:>12.4f} ratio "
          f"({failed} of {run.attempted} operations failed)")
    for why in run.failures[:5]:
        print(f"  failed: {why}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def print_layers(
    traced: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    metrics: dict[str, float],
    name: str,
) -> None:
    """Print self time per stage and layer (median over traced iterations),
    the tracing overhead, every per-layer metric, and whether the workload
    exercises the layer it was built for."""
    stages: dict[tuple[str, str], list[float]] = {}
    for row in traced:
        for stage, layers in row["layers"].items():
            for layer, seconds in layers.items():
                stages.setdefault((stage, layer), []).append(seconds)
    table = {key: statistics.median(v) for key, v in stages.items()}
    for stage in ("command", "check"):
        print(f"  self time, {stage} stage:")
        rows = sorted(
            ((v, layer) for (s, layer), v in table.items() if s == stage),
            reverse=True,
        )
        for seconds, layer in rows:
            print(f"    {layer:<22} {seconds:>10.4f} s")
    traced_cmd = statistics.median(r["command_s"] for r in traced)
    plain_cmd = statistics.median(r["command_s"] for r in untraced)
    print(f"  tracing overhead: command {traced_cmd:.4f} s traced vs "
          f"{plain_cmd:.4f} s untraced ({traced_cmd - plain_cmd:+.4f} s)")
    for key in PER_LAYER:
        print(f"  {key:<30} {metrics[key]:>14.6g} {PER_LAYER[key]}")
    command = {layer: v for (s, layer), v in table.items() if s == "command"}
    print(f"  design: largest command-stage self time is "
          f"{max(command, key=command.get)}")
    if name == "gda-market":
        print(f"  design: choice_flow calls take {metrics['flow.choice_s']:.4f} s, "
              f"{metrics['flow.choice_s'] / traced_cmd:.1%} of the traced command")
    if name == "solve-wide":
        front = sum(command.get(layer, 0.0) for layer in (
            "files.read", "files.validate", "model.instance", "flow.crucial_vector"
        ))
        bound = metrics["model.groups"] + 2
        print(f"  design: greedy share {metrics['flow.greedy_share']}; greedy "
              f"checks {metrics['flow.greedy_checks']} <= groups + 2 = {bound}: "
              f"{metrics['flow.greedy_checks'] <= bound}; load and crucial "
              f"vector are {front / traced_cmd:.1%} of the traced command")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reserve_match" / "__init__.py").is_file():
        print(f"error: no reserve_match package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload {sorted(unknown)}; choose from "
                     f"{sorted(workloads.WORKLOADS)} or all")
    results = {
        n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items()
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
