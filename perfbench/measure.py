"""Measuring process: runs one workload's commands in-process, repeatedly.

    python3 perfbench/measure.py PLAN_JSON SECONDS TRACE

``run.py`` starts this in a fresh interpreter (with ``src`` on
``PYTHONPATH``) after set-up, so its peak RSS holds no set-up data. Each
iteration runs the workload's command and then its check; the loop stops
when one more iteration of average length would end after SECONDS, once
MIN_ITERATIONS ran. The first iteration fills lazy caches and memory pools;
its outputs are checked, but it is marked ``warmup`` and not timed. The last
line of standard output is a JSON object with every iteration's timings,
exit codes and output hashes. Times are also
given rescaled by the reference loop timed around them (``reference.py``).

TRACE 0 drives ``reserve_match.cli.main`` with no wrappers. TRACE 1 installs
the tracer and calls the same public functions the CLI calls, in the CLI's
order, splitting ``solve`` into its stages; spans are written to the plan's
``spans`` file when the loop ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from typing import Any, Callable

import reference

MIN_ITERATIONS = 4  # the first is a warm-up, checked but not timed


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``getrusage``'s ru_maxrss would not do: Linux carries it over from the
    parent across fork and exec, so it would report the set-up's memory.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _timed(task: Callable[[], int]) -> tuple[float, Any, str]:
    """(seconds, exit code or None after an exception, captured stdout)."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = task()
    except Exception:  # a crash is one failed operation; keep measuring
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code, captured.getvalue()


def _cli_steps(plan: dict[str, Any]) -> tuple[Callable[[], int], Callable[[], int]]:
    from reserve_match import cli

    src, out = plan["input"], plan["out"]
    if plan["kind"] == "solve":
        command = ["solve", src, "--out", out]
        check = ["verify", src, out]
    else:
        command = ["gda", src, "--out", out]
        check = ["gda", src, "--probe", plan["probe"]]
    return (lambda: cli.main(command)), (lambda: cli.main(check))


def _traced_steps(
    plan: dict[str, Any], tracer: Any
) -> tuple[Callable[[], int], Callable[[], int]]:
    from reserve_match import files, flow, gda, verify

    src, out = plan["input"], plan["out"]

    def solve() -> int:
        with tracer.span("command"):
            with tracer.span("files.load_instance"):
                instance = files.load_instance(src)
            with tracer.span("model.groups"):
                instance.groups()
            network = flow.build_network(instance)
            cert = flow.compute_certificate(network)
            alpha, delta_star = flow.crucial_vector(
                instance, network=network, cert=cert
            )
            result = flow.choice_flow(instance, delta_star, alpha=alpha)
            with tracer.span("files.dump"):
                payload = files.choice_result_payload(instance, result, "flow")
                files.write_text(files.dump_json(payload), out)
        return 0

    def verify_result() -> int:
        with tracer.span("check"):
            with tracer.span("files.load_instance"):
                instance = files.load_instance(src)
            with tracer.span("files.load_selected"):
                selected = files.load_selected(out)
            report = verify.verify_balanced_and_jef(instance, selected)
        return 0 if report.all_hold() else 1

    def run_gda() -> int:
        with tracer.span("command"):
            with tracer.span("files.load_multi"):
                multi = files.load_multi(src)
            result = gda.run_gda(multi)
            with tracer.span("files.dump"):
                payload = files.gda_result_payload(result)
                files.write_text(files.dump_json(payload), out)
        return 0

    def probe() -> int:
        school, s1, s2 = plan["probe"].split(":")
        with tracer.span("check"):
            with tracer.span("files.load_multi"):
                multi = files.load_multi(src)
            everyone = [s.id for s in multi.students]
            instance = gda.induced_instance(multi, school, everyone)
            violation = gda.substitutability_probe(
                instance, set(everyone) - {s1, s2}, s1, s2
            )
        return 0 if violation is None else 1

    if plan["kind"] == "solve":
        return solve, verify_result
    return run_gda, probe


def main(argv: list[str]) -> int:
    plan_path, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if trace:
        import spans as spans_module

        tracer = spans_module.Tracer()
        spans_module.install(tracer)
        command, check = _traced_steps(plan, tracer)
    else:
        command, check = _cli_steps(plan)

    iterations = []
    start = time.perf_counter()
    deadline = start + seconds
    ref_before = reference.loop_seconds()
    while len(iterations) < MIN_ITERATIONS or (
        # start another iteration only if one more fits in the time left
        time.perf_counter() + (time.perf_counter() - start) / len(iterations)
        <= deadline
    ):
        if tracer is not None:
            tracer.next_run()
        command_s, command_rc, _ = _timed(command)
        out_sha = _sha256(plan["out"]) if command_rc == 0 else None
        ref_mid = reference.loop_seconds()
        check_s, check_rc, check_stdout = _timed(check)
        ref_after = reference.loop_seconds()
        row = {
            "command_wall_s": command_s,
            "command_s": reference.rescale(command_s, ref_before, ref_mid),
            "command_rc": command_rc,
            "out_sha256": out_sha,
            "check_wall_s": check_s,
            "check_s": reference.rescale(check_s, ref_mid, ref_after),
            "check_rc": check_rc,
            "check_stdout": check_stdout,
            "reference_s": [ref_before, ref_mid, ref_after],
            "warmup": not iterations,
        }
        if tracer is not None:
            scale = reference.rescale(1.0, ref_before, ref_after)
            row["layers"] = {
                stage: {layer: t * scale for layer, t in times.items()}
                for stage, times in spans_module.layer_times(tracer.spans).items()
            }
            row["metrics"] = {
                key: value * scale if key.endswith(("_s", "_ms")) else value
                for key, value in spans_module.run_metrics(tracer.spans).items()
            }
        iterations.append(row)
        ref_before = ref_after
    if tracer is not None:
        tracer.dump(plan["spans"])
    print(json.dumps({"iterations": iterations, "peak_rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
