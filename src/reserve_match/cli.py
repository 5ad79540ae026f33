"""Command-line interface.

Exit codes: 0 success (or VALID / all axioms PASS), 1 negative verdict
(NO-INSTANCE, a FAIL line, or a reported violation), 2 malformed input
(an InstanceFormatError from the file loaders or the explicit argument
checks here), 3 internal failure (a failed invariant, or any other
ValueError or KeyError raised inside the solver).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import files, flow, gda, oracle
from .baseline import sequential_baseline
from .bench import bench_payload, run_bench
from .generator import QUOTA_STYLES, generate_instance
from .model import MAX_RANKS, matching_signature, selection_flags
from .solve import solve
from .verify import verify_flags

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def cmd_solve(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance)
    result = solve(instance)
    payload = files.choice_result_payload(instance, result)
    files.write_text(files.dump_json(payload), args.out)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance)
    result = sequential_baseline(instance)
    payload = files.baseline_result_payload(instance, result)
    files.write_text(files.dump_json(payload), args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance)
    targets = files.load_targets(args.targets, instance)
    witness = flow.check_validity_flow(instance, targets)
    if witness is None:
        print("NO-INSTANCE")
        return EXIT_NEGATIVE
    matching = flow.flow_to_matching(instance, witness)
    print("VALID")
    print(f"signature: {list(matching_signature(instance, matching))}")
    counts = files.choice_counts_by_label(instance, matching)
    for label in sorted(counts):
        print(f"  {label}: {counts[label]}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    instance = files.load_instance(args.instance)
    selected = files.load_selected(args.result)
    try:
        flags = selection_flags(instance, selected)
    except KeyError as err:  # its message lists the unknown ids
        raise files.InstanceFormatError(f"result file names {err.args[0]}") from None
    try:
        budget = oracle.budget_from_env()
    except ValueError as err:
        raise files.InstanceFormatError(str(err)) from err
    report = verify_flags(instance, flags, budget)
    print(f"mode: {report.mode}")
    lines = [
        ("non-wastefulness", report.non_wasteful),
        ("maximal diversity", report.maximal_diversity),
        ("balanced representation", report.balanced),
        ("justified envy-freeness", report.justified_envy_free),
    ]
    for label, verdict in lines:
        print(f"{label}: {'PASS' if verdict else 'FAIL'}")
    if report.envy_witness is not None:
        envious, envied = report.envy_witness
        print(f"justified envy: {envious} over {envied}")
    return EXIT_OK if report.all_hold() else EXIT_NEGATIVE


def cmd_gen(args: argparse.Namespace) -> int:
    _check_gen_sizes([args.students], args.types, args.ranks)
    instance = generate_instance(
        args.students, args.types, args.ranks, args.seed, args.quota_style
    )
    payload = files.instance_to_payload(instance)
    files.write_text(files.dump_json(payload), args.out)
    return EXIT_OK


def cmd_gda(args: argparse.Namespace) -> int:
    multi = files.load_multi(args.instance)
    if args.probe is not None:
        return _run_probe(multi, args.probe)
    result = gda.run_gda(multi)
    payload = files.gda_result_payload(result)
    files.write_text(files.dump_json(payload), args.out)
    return EXIT_OK


def _run_probe(multi: gda.MultiInstance, spec: str) -> int:
    parts = spec.split(":")
    if len(parts) != 3:
        raise files.InstanceFormatError(
            f"--probe expects SCHOOL:S1:S2, got {spec!r}"
        )
    school_id, s1, s2 = parts
    everyone = multi.student_ids
    if school_id not in multi.instances:
        raise files.InstanceFormatError(f"--probe names unknown school {school_id!r}")
    unknown = {s1, s2} - everyone
    if unknown:
        raise files.InstanceFormatError(
            f"--probe names unknown student ids: {sorted(unknown)}"
        )
    if s1 == s2:
        raise files.InstanceFormatError("--probe needs two distinct students")
    violation = gda.substitutability_probe(
        multi.instances[school_id], everyone - {s1, s2}, s1, s2
    )
    if violation is None:
        print("no substitutability violation")
        return EXIT_OK
    print(f"substitutability violation at school {school_id}:")
    print(f"  without {s1}: {s2} rejected "
          f"(selected: {sorted(violation.without_s1)})")
    print(f"  with {s1}: {s2} selected "
          f"(selected: {sorted(violation.with_s1)})")
    return EXIT_NEGATIVE


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.students)
    _check_gen_sizes(sizes, args.types, args.ranks)
    rows = run_bench(sizes, args.types, args.ranks, args.seed, args.repeats)
    files.write_text(files.dump_json(bench_payload(rows)), args.out)
    return EXIT_OK


def _check_gen_sizes(students: list[int], types: int, ranks: int) -> None:
    """Reject generator sizes generate_instance would refuse."""
    if any(n < 0 for n in students):
        raise files.InstanceFormatError("--students must be non-negative")
    if types < 1:
        raise files.InstanceFormatError("--types must be at least 1")
    if ranks < 1:
        raise files.InstanceFormatError("--ranks must be at least 1")
    if ranks > MAX_RANKS:
        raise files.InstanceFormatError(f"--ranks must be at most {MAX_RANKS}")


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as err:
        raise files.InstanceFormatError(f"bad --students list {raw!r}") from err
    if not sizes or any(n < 0 for n in sizes):
        raise files.InstanceFormatError(f"bad --students list {raw!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reserve-match",
        description="Student selection under ranked diversity quotas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the balanced choice function")
    p_solve.add_argument("instance", help="instance file (JSON)")
    p_solve.add_argument("--out", default=None, help="write result here")
    p_solve.set_defaults(func=cmd_solve)

    p_base = sub.add_parser("baseline", help="run the sequential baseline")
    p_base.add_argument("instance")
    p_base.add_argument("--out", default=None)
    p_base.set_defaults(func=cmd_baseline)

    p_val = sub.add_parser("validate", help="check a target vector")
    p_val.add_argument("instance")
    p_val.add_argument("--targets", required=True, help="targets file (JSON)")
    p_val.set_defaults(func=cmd_validate)

    p_ver = sub.add_parser("verify", help="verify a result against the axioms")
    p_ver.add_argument("instance")
    p_ver.add_argument("result", help="result file with a selected array")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--students", type=int, required=True)
    p_gen.add_argument("--types", type=int, default=2)
    p_gen.add_argument("--ranks", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--quota-style", choices=QUOTA_STYLES, default="uniform")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_gda = sub.add_parser("gda", help="multi-school deferred acceptance")
    p_gda.add_argument("instance", help="multi-school file (JSON)")
    p_gda.add_argument(
        "--probe",
        default=None,
        metavar="SCHOOL:S1:S2",
        help="probe substitutability instead of running rounds",
    )
    p_gda.add_argument("--out", default=None)
    p_gda.set_defaults(func=cmd_gda)

    p_bench = sub.add_parser(
        "bench", help="time the flow certificate solve across sizes"
    )
    p_bench.add_argument(
        "--students", default="10000,100000", help="comma-separated sizes"
    )
    p_bench.add_argument("--types", type=int, default=3)
    p_bench.add_argument("--ranks", type=int, default=2)
    p_bench.add_argument("--seed", type=int, default=2024)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except files.InstanceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as err:
        print(f"internal invariant failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, KeyError) as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
