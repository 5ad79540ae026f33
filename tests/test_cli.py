"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from reserve_match import flow
from reserve_match.cli import main
from reserve_match.oracle import ENV_BUDGET

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


def test_validate_unknown_group_is_input_error(instance_file, tmp_path, capsys):
    targets = write_json(tmp_path, "targets.json", {"t9": 1})
    assert main(["validate", instance_file, "--targets", targets]) == 2
    assert "unknown group" in capsys.readouterr().err


def test_verify_passing_result(instance_file, tmp_path, capsys):
    result = write_json(tmp_path, "result.json", {"selected": ["s2", "s4"]})
    assert main(["verify", instance_file, result]) == 0
    out = capsys.readouterr().out
    assert "mode: oracle" in out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


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


@pytest.mark.parametrize("raw", ["4,9", "4,9,x", "4,-9,100", " , , "])
def test_verify_malformed_oracle_budget_is_input_error(
    instance_file, tmp_path, capsys, monkeypatch, raw
):
    result = write_json(tmp_path, "result.json", {"selected": ["s2", "s4"]})
    monkeypatch.setenv(ENV_BUDGET, raw)
    assert main(["verify", instance_file, result]) == 2
    assert ENV_BUDGET in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--students", "-1"],
        ["gen", "--students", "4", "--types", "0"],
        ["gen", "--students", "4", "--ranks", "0"],
        ["bench", "--students", "10", "--types", "0"],
        ["bench", "--students", "10", "--ranks", "0"],
    ],
)
def test_generator_size_errors_are_input_errors(capsys, argv):
    assert main(argv) == 2
    assert f"error: {argv[-2]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("bad arc"), KeyError("s9")])
def test_solver_value_and_key_errors_are_internal(
    instance_file, tmp_path, capsys, monkeypatch, error
):
    def broken(instance):
        raise error

    monkeypatch.setattr(flow, "choice_flow", broken)
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
    assert (
        main(
            [
                "bench",
                "--students",
                "60,120",
                "--types",
                "2",
                "--repeats",
                "1",
                "--groups",
                "4",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert [row["students"] for row in payload["backend_timings"]] == [60, 120]
    assert payload["groups_expected"] == 4
    assert all(row["flow_seconds"] > 0 for row in payload["backend_timings"])
    assert main(["bench", "--students", "10,-3"]) == 2
    assert main(["bench", "--students", "abc"]) == 2


def test_malformed_instance_file_is_input_error(tmp_path, capsys):
    bad = dict(INSTANCE)
    bad["capacity"] = "two"
    path = write_json(tmp_path, "bad.json", bad)
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "capacity" in err

    missing = str(tmp_path / "missing.json")
    assert main(["solve", missing]) == 2


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
