"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import flow_reference
import pytest
from factories import hard_regime_school, sparse_type_school
from hypothesis import given
from test_golden import CORPUS
from test_properties import PROPERTY_SETTINGS, instances_with_targets

from reserve_match import files, flow
from reserve_match.bench import bench_instance
from reserve_match.cli import main
from reserve_match.generator import generate_instance
from reserve_match.model import (
    MAX_RANKS,
    MAX_RESERVED_TYPES,
    Instance,
    StudentColumns,
    group_label,
    parse_group_label,
)

INSTANCE = {
    "capacity": 2,
    "types": ["t1"],
    "quotas": [{"type": "t1", "rank": 1, "quota": 1}],
    "students": [
        {"id": "s1", "types": ["t1"]},
        {"id": "s2", "types": ["t1"]},
        {"id": "s3", "types": []},
        {"id": "s4", "types": []},
    ],
    "priority": ["s4", "s3", "s2", "s1"],
}

MULTI = {
    "types": ["t1"],
    "students": [
        {"id": "a", "types": ["t1"]},
        {"id": "b", "types": []},
        {"id": "c", "types": ["t1"]},
        {"id": "d", "types": []},
        {"id": "e", "types": []},
    ],
    "schools": [
        {"id": "X", "capacity": 1, "quotas": [], "priority": ["a", "b", "c", "d", "e"]},
        {
            "id": "Y",
            "capacity": 2,
            "quotas": [{"type": "t1", "rank": 1, "quota": 1}],
            "priority": ["d", "e", "c", "b", "a"],
        },
    ],
    "preferences": {
        "a": ["X", "Y"],
        "b": ["X"],
        "c": ["X", "Y"],
        "d": ["Y"],
        "e": ["Y", "X"],
    },
}


PASS_LINES = [
    "non-wastefulness: PASS",
    "maximal diversity: PASS",
    "balanced representation: PASS",
    "justified envy-freeness: PASS",
]


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE), encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_writes_canonical_result(instance_file, capsys):
    assert main(["solve", instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "alpha": "1/2",
        "backend": "flow",
        "per_group": {"none": 1, "t1": 1},
        "selected": ["s4", "s2"],
        "signature": [1, 1],
        "targets": {"none": 1, "t1": 1},
    }


def test_solve_repeat_runs_are_deterministic(instance_file, capsys):
    main(["solve", instance_file])
    first = capsys.readouterr().out
    main(["solve", instance_file])
    assert capsys.readouterr().out == first


def test_baseline_command(instance_file, capsys):
    assert main(["baseline", instance_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "baseline"
    assert payload["selected"] == ["s4", "s2"]


def test_validate_valid_targets(instance_file, tmp_path, capsys):
    targets = write_json(tmp_path, "targets.json", {"none": 1, "t1": 1})
    assert main(["validate", instance_file, "--targets", targets]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    assert "signature: [1, 1]" in out
    assert "none: 1" in out and "t1: 1" in out


def test_validate_no_instance(instance_file, tmp_path, capsys):
    targets = write_json(tmp_path, "targets.json", {"none": 2})
    assert main(["validate", instance_file, "--targets", targets]) == 1
    assert "NO-INSTANCE" in capsys.readouterr().out


# four blocks of four (no type, t1, t2, both) in priority order, two
# rank-1 seats per type, eight seats: the school of demos/02_validity_checks.py
FOUR_BLOCKS = {
    "capacity": 8,
    "types": ["t1", "t2"],
    "quotas": [
        {"type": "t1", "rank": 1, "quota": 2},
        {"type": "t2", "rank": 1, "quota": 2},
    ],
    "students": [
        {"id": f"{name}{i}", "types": types}
        for name, types in zip("abcd", [[], ["t1"], ["t2"], ["t1", "t2"]])
        for i in range(1, 5)
    ],
    "priority": [f"{name}{i}" for name in "abcd" for i in range(1, 5)],
}


@pytest.mark.parametrize(
    ("want", "lines"),
    [
        # raised in key order, the untyped block takes 4 general seats and
        # the t1 block both t1 seats, leaving the doubly typed block 2
        (1, ["none: 4", "t1: 2", "t1+t2: 2", "t2: 0"]),
        # three for the doubly typed block leave one t1 seat for the t1 block
        (3, ["none: 4", "t1: 1", "t1+t2: 3", "t2: 0"]),
    ],
)
def test_validate_prints_the_rerouted_optimum(tmp_path, capsys, want, lines):
    instance = write_json(tmp_path, "instance.json", FOUR_BLOCKS)
    targets = write_json(tmp_path, "targets.json", {"t1+t2": want})
    assert main(["validate", instance, "--targets", targets]) == 0
    expected = ["VALID", "signature: [4, 4]"] + [f"  {line}" for line in lines]
    assert capsys.readouterr().out.splitlines() == expected


def _validated_counts(directory: Path, instance: Instance, targets: dict):
    """The counts `validate` prints for the targets, or None on NO-INSTANCE."""
    source = directory / "instance.json"
    files.write_text(files.dump_json(files.instance_to_payload(instance)), str(source))
    labels = {group_label(key): want for key, want in targets.items()}
    path = write_json(directory, "targets.json", labels)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["validate", str(source), "--targets", path])
    lines = buffer.getvalue().splitlines()
    if code == 1:
        assert lines == ["NO-INSTANCE"]
        return None
    assert code == 0 and lines[0] == "VALID"
    counts = {}
    for line in lines[2:]:
        label, value = line.strip().split(": ")
        counts[parse_group_label(label)] = int(value)
    return counts


def _assert_canonical_witness(directory: Path, instance: Instance, targets: dict):
    """validate's counts meet the targets, sum to F* and are the exact group
    counts of a maximal-diversity flow on the reference network; validate
    says NO-INSTANCE exactly when the reference refuses the targets."""
    counts = _validated_counts(directory, instance, targets)
    net = flow_reference.build_network(instance)
    reference = flow_reference.check_validity_flow(instance, targets, network=net)
    assert (counts is None) == (reference is None)
    if counts is None:
        return
    assert list(counts) == sorted(instance.group_keys(), key=group_label)
    assert all(counts[key] >= want for key, want in targets.items())
    assert sum(counts.values()) == min(len(instance.priority), instance.capacity)
    exact = flow_reference.check_validity_flow(instance, counts, network=net)
    assert flow_reference.flow_group_counts(net, exact) == counts


WITNESSED = {
    **{name: build for name, (build, _in, _out) in CORPUS.items()},
    "hard-600-3": lambda: hard_regime_school(600, 3),
    "hard-1000-306-98": lambda: hard_regime_school(1000, 306, 98),
}


@pytest.mark.parametrize("name", sorted(WITNESSED))
def test_validate_prints_a_canonical_witness(tmp_path, name):
    instance = WITNESSED[name]()
    _alpha, crucial = flow.crucial_vector(instance)
    _assert_canonical_witness(tmp_path, instance, crucial)
    # the choice's counts fill F*, so they are their own witness
    counts = flow.choice_flow(instance).per_group_counts
    assert _validated_counts(tmp_path, instance, counts) == counts


@PROPERTY_SETTINGS
@given(instances_with_targets())
def test_validate_prints_a_canonical_witness_on_drawn_instances(
    tmp_path_factory, case
):
    instance, targets = case
    _assert_canonical_witness(tmp_path_factory.mktemp("validate"), instance, targets)


def test_validate_unknown_group_is_input_error(instance_file, tmp_path, capsys):
    targets = write_json(tmp_path, "targets.json", {"t9": 1})
    assert main(["validate", instance_file, "--targets", targets]) == 2
    assert "unknown group" in capsys.readouterr().err


def test_verify_passing_result(instance_file, tmp_path, capsys):
    result = write_json(tmp_path, "result.json", {"selected": ["s2", "s4"]})
    assert main(["verify", instance_file, result]) == 0
    assert capsys.readouterr().out.splitlines() == PASS_LINES


def test_verify_failing_result_reports_witness(instance_file, tmp_path, capsys):
    result = write_json(tmp_path, "result.json", {"selected": ["s1", "s2"]})
    assert main(["verify", instance_file, result]) == 1
    out = capsys.readouterr().out
    assert "balanced representation: FAIL" in out
    assert "justified envy-freeness: FAIL" in out
    assert "justified envy: s4 over s1" in out


def test_verify_unknown_student_is_input_error(instance_file, tmp_path, capsys):
    result = write_json(tmp_path, "result.json", {"selected": ["ghost"]})
    assert main(["verify", instance_file, result]) == 2
    assert "unknown student ids: ['ghost']" in capsys.readouterr().err


def test_verify_names_every_unknown_student_once(instance_file, tmp_path, capsys):
    result = write_json(tmp_path, "result.json", {"selected": ["zz", "s1", "ghost"]})
    assert main(["verify", instance_file, result]) == 2
    assert capsys.readouterr().err == (
        "error: result file names unknown student ids: ['ghost', 'zz']\n"
    )


@pytest.mark.parametrize("budget", [None, "0,0,0"])
def test_no_command_builds_student_records(
    instance_file, tmp_path, capsys, monkeypatch, budget
):
    # every engine path reads the student columns; the StudentRecord view is
    # only for callers that pass or ask for records. The former oracle budget
    # variable, if still set in a user's environment, changes nothing.
    def refused(self):
        raise AssertionError("StudentColumns.records was built")

    monkeypatch.setattr(StudentColumns, "records", property(refused))
    if budget is None:
        monkeypatch.delenv("RESERVE_MATCH_ORACLE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RESERVE_MATCH_ORACLE_BUDGET", budget)
    targets = write_json(tmp_path, "targets.json", {"none": 1, "t1": 1})
    multi = write_json(tmp_path, "multi.json", MULTI)
    for argv in (
        ["solve", instance_file],
        ["validate", instance_file, "--targets", targets],
        ["baseline", instance_file],
        ["gda", multi],
        ["gda", multi, "--probe", "X:a:b"],
    ):
        assert main(argv) == 0, argv
    for selected, code in ((["s2", "s4"], 0), (["s1", "s2"], 1)):
        result = write_json(tmp_path, "result.json", {"selected": selected})
        assert main(["verify", instance_file, result]) == code
    out = capsys.readouterr().out
    assert "mode:" not in out
    assert "justified envy: s4 over s1" in out


def test_verify_of_a_small_school_with_many_groups_is_fast(tmp_path, capsys):
    # 12 students, 6 types, 10 groups and 18 seats: exhaustive enumeration
    # of this school takes about a minute, the flow engine milliseconds
    instance = str(tmp_path / "instance.json")
    result = str(tmp_path / "result.json")
    gen = ["gen", "--students", "12", "--types", "6", "--ranks", "3"]
    gen += ["--seed", "1", "--quota-style", "minmax", "--out", instance]
    assert main(gen) == 0
    assert main(["solve", instance, "--out", result]) == 0
    capsys.readouterr()
    assert main(["verify", instance, result]) == 0
    assert capsys.readouterr().out.splitlines() == PASS_LINES


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--students", "-1"],
        ["gen", "--students", "4", "--types", "0"],
        ["gen", "--students", "4", "--ranks", "0"],
        ["gen", "--students", "4", "--ranks", str(MAX_RANKS + 1)],
        ["gen", "--students", "4", "--types", str(MAX_RESERVED_TYPES + 1)],
        ["bench", "--students", "10", "--types", "0"],
        ["bench", "--students", "10", "--types", str(MAX_RESERVED_TYPES + 1)],
        ["bench", "--students", "10", "--ranks", "0"],
        ["bench", "--students", "10", "--ranks", str(MAX_RANKS + 1)],
    ],
)
def test_generator_size_errors_are_input_errors(capsys, argv):
    assert main(argv) == 2
    assert f"error: {argv[-2]} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"capacity": 2, "types": ["t\xff"]}', "is not JSON"),
        (b"[" * 200_000, "nests too deeply"),
        (b'{"capacity": ' + b"9" * 5_000 + b"}", "is not JSON"),
    ],
    ids=["non-utf8", "deep-nesting", "over-long-integer"],
)
def test_undecodable_files_are_input_errors(
    instance_file, tmp_path, capsys, content, message
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (
        ["solve", str(bad)],
        ["gda", str(bad)],
        ["validate", instance_file, "--targets", str(bad)],
        ["verify", instance_file, str(bad)],
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_unwritable_out_is_input_error(instance_file, tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.json")
    multi = write_json(tmp_path, "multi.json", MULTI)
    for argv in (
        ["solve", instance_file],
        ["baseline", instance_file],
        ["gen", "--students", "4"],
        ["gda", multi],
        ["bench", "--students", "10", "--repeats", "1"],
    ):
        assert main(argv + ["--out", out]) == 2
        assert f"error: cannot write {out!r}" in capsys.readouterr().err


def test_closed_stdout_is_one_input_error_line():
    # the output is far larger than a pipe's buffer, so the writer is still
    # writing when the reader goes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = [sys.executable, "-m", "reserve_match", "gen", "--students", "20000"]
    with subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        status = proc.wait(timeout=60)
    assert status == 2
    assert err.startswith("error: cannot write to stdout: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["verify", "gda --probe", "validate"])
def test_text_commands_on_a_closed_stdout_are_one_input_error_line(
    tmp_path, command
):
    instance = write_json(tmp_path, "instance.json", INSTANCE)
    result = str(tmp_path / "result.json")
    assert main(["solve", instance, "--out", result]) == 0
    argv = {
        "verify": ["verify", instance, result],
        "gda --probe": ["gda", write_json(tmp_path, "multi.json", MULTI),
                        "--probe", "X:a:b"],
        "validate": ["validate", instance, "--targets",
                     write_json(tmp_path, "targets.json", {"t1": 1, "none": 1})],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # a pipe with no reader: the command's first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reserve_match", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write to stdout: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("error",[ValueError("bad arc"), KeyError("s9")])
def test_solver_value_and_key_errors_are_internal(
    instance_file, tmp_path, capsys, monkeypatch, error
):
    def broken(*args, **kwargs):
        raise error

    # both commands choose through choose_pool
    monkeypatch.setattr(flow, "choose_pool", broken)
    multi = write_json(tmp_path, "multi.json", MULTI)
    for argv in (["solve", instance_file], ["gda", multi, "--probe", "X:a:b"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "internal error" in err
        assert type(error).__name__ in err


def test_gen_is_deterministic_and_solvable(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["gen", "--students", "12", "--types", "2", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_text(encoding="utf-8") == second.read_text(encoding="utf-8")
    assert main(["solve", str(first)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["selected"]) == 6


def test_gen_minmax_style(tmp_path):
    out = tmp_path / "gen.json"
    assert (
        main(
            [
                "gen",
                "--students",
                "10",
                "--ranks",
                "3",
                "--quota-style",
                "minmax",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert any(entry["rank"] == 1 for entry in payload["quotas"])


def test_gen_accepts_the_largest_rank_count(tmp_path):
    out = tmp_path / "gen.json"
    argv = ["gen", "--students", "6", "--ranks", str(MAX_RANKS),
            "--quota-style", "minmax", "--out", str(out)]
    assert main(argv) == 0
    assert main(["solve", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert max(entry["rank"] for entry in payload["quotas"]) == MAX_RANKS - 1


@pytest.mark.parametrize("rank, code", [(MAX_RANKS - 1, 0), (MAX_RANKS, 2)])
def test_quota_rank_bound(tmp_path, capsys, rank, code):
    payload = json.loads(json.dumps(INSTANCE))
    payload["quotas"][0]["rank"] = rank
    assert main(["solve", write_json(tmp_path, "ranked.json", payload)]) == code
    if code:
        assert f"quota ranks must be below {MAX_RANKS}" in capsys.readouterr().err


def _typed_school(types: int) -> dict:
    """An instance payload of 2,000 students in 20 groups over `types`
    reserved types: factories.sparse_type_school for 16 types, and for more
    the same school with its first students holding one more type each."""
    payload = files.instance_to_payload(
        sparse_type_school(2000, MAX_RESERVED_TYPES, 20, 3)
    )
    for i in range(types - MAX_RESERVED_TYPES):
        extra = f"u{i:02d}"
        payload["types"].append(extra)
        payload["students"][i]["types"].append(extra)
    return payload


@pytest.mark.parametrize(
    "types, code", [(MAX_RESERVED_TYPES, 0), (MAX_RESERVED_TYPES + 1, 2)]
)
def test_reserved_type_bound(tmp_path, capsys, types, code):
    payload = _typed_school(types)
    held = {t for student in payload["students"] for t in student["types"]}
    assert len(held) == types
    instance = write_json(tmp_path, "school.json", payload)
    multi = write_json(tmp_path, "market.json", {
        "types": payload["types"],
        "students": payload["students"],
        "schools": [{"id": "c", "capacity": payload["capacity"],
                     "quotas": payload["quotas"], "priority": payload["priority"]}],
        "preferences": {s["id"]: ["c"] for s in payload["students"]},
    })
    result = str(tmp_path / "result.json")
    targets = write_json(tmp_path, "targets.json", {})
    if code:
        write_json(tmp_path, "result.json", {"selected": []})
    runs = [
        ["solve", instance, "--out", result],
        ["verify", instance, result],
        ["validate", instance, "--targets", targets],
        ["gda", multi, "--out", str(tmp_path / "gda.json")],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"more than {MAX_RESERVED_TYPES}" in err
        else:
            assert err == ""


def test_gda_run(tmp_path, capsys):
    multi = write_json(tmp_path, "multi.json", MULTI)
    assert main(["gda", multi]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "gda"
    assert payload["matched"] == {"X": ["a"], "Y": ["c", "d"]}
    assert payload["unmatched"] == ["b", "e"]
    assert [r["round"] for r in payload["rounds"]] == [1, 2, 3]


def test_gda_probe_reports_violation(tmp_path, capsys):
    probe_multi = {
        "types": ["t1", "t2"],
        "students": (
            [{"id": f"s1{i}", "types": ["t1"]} for i in range(1, 7)]
            + [{"id": f"s2{i}", "types": ["t2"]} for i in range(1, 4)]
        ),
        "schools": [
            {
                "id": "c",
                "capacity": 4,
                "quotas": [
                    {"type": "t1", "rank": 1, "quota": 4},
                    {"type": "t2", "rank": 1, "quota": 4},
                ],
                "priority": [
                    "s11", "s12", "s13", "s14", "s15", "s16",
                    "s21", "s22", "s23",
                ],
            }
        ],
        "preferences": {},
    }
    multi = write_json(tmp_path, "multi.json", probe_multi)
    assert main(["gda", multi, "--probe", "c:s16:s13"]) == 1
    out = capsys.readouterr().out
    assert "substitutability violation" in out
    assert "without s16: s13 rejected" in out
    assert "with s16: s13 selected" in out

    assert main(["gda", multi, "--probe", "c:s13:s16"]) == 0
    assert "no substitutability violation" in capsys.readouterr().out

    assert main(["gda", multi, "--probe", "nonsense"]) == 2
    assert main(["gda", multi, "--probe", "c:s13:s13"]) == 2
    assert main(["gda", multi, "--probe", "z:s16:s13"]) == 2
    assert main(["gda", multi, "--probe", "c:ghost:s13"]) == 2


def test_bench_small_sizes(tmp_path, capsys):
    argv = ["bench", "--students", "60,120", "--types", "2", "--repeats", "1"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["students"] for row in payload["backend_timings"]] == [60, 120]
    assert all(row["flow_seconds"] > 0 for row in payload["backend_timings"])
    assert main(["bench", "--students", "10,-3"]) == 2
    assert main(["bench", "--students", "abc"]) == 2


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_rejects_repeats_below_one(capsys, repeats):
    assert main(["bench", "--students", "10", "--repeats", repeats]) == 2
    captured = capsys.readouterr()
    assert "error: --repeats must be at least 1" in captured.err
    assert captured.out == ""
    with pytest.raises(ValueError, match="repeats"):
        bench_instance(generate_instance(10, 2, 2, seed=0), int(repeats))


def test_malformed_instance_file_is_input_error(tmp_path, capsys):
    bad = dict(INSTANCE)
    bad["capacity"] = "two"
    path = write_json(tmp_path, "bad.json", bad)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "capacity" in err

    missing = str(tmp_path / "missing.json")
    assert main(["solve", missing]) == 2


def test_type_named_none_is_input_error(tmp_path, capsys):
    # two students typed "none" and two untyped: both groups would be
    # labelled "none" in per_group and targets
    ambiguous = {
        "capacity": 2,
        "types": ["none"],
        "quotas": [],
        "students": [
            {"id": "s1", "types": ["none"]},
            {"id": "s2", "types": ["none"]},
            {"id": "s3", "types": []},
            {"id": "s4", "types": []},
        ],
        "priority": ["s1", "s2", "s3", "s4"],
    }
    path = write_json(tmp_path, "none.json", ambiguous)
    assert main(["solve", path]) == 2
    assert "type name 'none'" in capsys.readouterr().err


def test_type_with_plus_is_input_error_in_gda_files(tmp_path, capsys):
    # types x, y and x+y: the groups {x, y} and {x+y} share the label "x+y"
    multi = json.loads(json.dumps(MULTI))
    multi["types"] = ["x", "y", "x+y"]
    multi["students"][0]["types"] = ["x", "y"]
    multi["students"][2]["types"] = ["x+y"]
    for school in multi["schools"]:
        school["quotas"] = []
    path = write_json(tmp_path, "plus.json", multi)
    assert main(["gda", path]) == 2
    assert "type name 'x+y'" in capsys.readouterr().err


@pytest.mark.parametrize("types", ["1", "3", "5"])
def test_gen_type_names_pass_the_label_rule(tmp_path, types):
    out = tmp_path / "gen.json"
    argv = ["gen", "--students", "20", "--types", types, "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["types"] == [f"t{i}" for i in range(1, int(types) + 1)]
    assert main(["solve", str(out), "--out", str(tmp_path / "r.json")]) == 0


def test_integral_float_fields_solve_like_ints(tmp_path, capsys):
    plain = write_json(tmp_path, "plain.json", INSTANCE)
    floats = json.loads(json.dumps(INSTANCE))
    floats["capacity"] = 2.0
    floats["quotas"][0]["rank"] = 1.0
    floats["quotas"][0]["quota"] = 1.0
    floated = write_json(tmp_path, "floats.json", floats)
    assert main(["solve", plain, "--out", str(tmp_path / "plain.out")]) == 0
    assert main(["solve", floated, "--out", str(tmp_path / "floats.out")]) == 0
    assert (tmp_path / "floats.out").read_bytes() == (
        tmp_path / "plain.out"
    ).read_bytes()


def test_boolean_quota_is_input_error_without_traceback(tmp_path, capsys):
    bad = json.loads(json.dumps(INSTANCE))
    bad["quotas"][0]["quota"] = True
    path = write_json(tmp_path, "bad.json", bad)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "bad instance file" in err
    assert "Traceback" not in err
