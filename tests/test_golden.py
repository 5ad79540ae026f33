"""Golden corpus: `solve` and `gda` output bytes on fixed inputs must never
drift.

Each single-school case builds a seeded instance, writes it as an instance
file, runs the CLI's `solve` on it and compares the sha256 of both files with
digests recorded with the earlier one-check-per-admission solver. The input
digest guards the corpus itself; the output digest guards the selection,
counts, signature, alpha and targets byte for byte.

Each single-school case also runs the CLI's `baseline --out` and, with the
instance's crucial vector as its targets file, `validate --targets`, and
compares the sha256 of the baseline output and of the validate stdout with
digests recorded while the baseline, the matching checks and the flow
decomposition still looked students up as records.

Each gen case runs the CLI's `gen` and compares the sha256 of its output
with digests recorded with the record-based generator and the recursive
JSON writer; the second case has more than nine types, so its files list
"t10" before "t2".

Each market case writes `factories.seeded_market` as a multi-school file and
compares the sha256 of `gda --out` (matches, unmatched students and the full
round trace) and of `gda --probe` stdout with digests recorded before pools
were ordered by rank arrays and networks built on per-school seat layouts.
"""

from __future__ import annotations

import hashlib

import pytest
from factories import hard_regime_school, seeded_market

from reserve_match import files
from reserve_match.cli import main
from reserve_match.flow import crucial_vector
from reserve_match.model import group_label
from reserve_match.generator import generate_instance

# name -> (instance builder, sha256 of the instance file, of the solve output)
CORPUS = {
    "gen-50-r1-uniform": (
        lambda: generate_instance(50, 2, 1, 101, "uniform"),
        "6f8a4df02c1bd7f9767a9c914de9c41f9a7255adc89ebfbda8a7a3331876b3e1",
        "c95d71bf83a5aa7c89602f1bf06eb1fc391d82136ad4edd0c3b1d57c8089a146",
    ),
    "gen-400-r2-minmax": (
        lambda: generate_instance(400, 3, 2, 102, "minmax"),
        "bad99615027e453e027862098e671afc5bc51a486432a2d8ab802b13cd7d10e3",
        "b8244490bcbb4496024c5d5c6fa30068eb7319a2e1f1f6e6d700447276515db9",
    ),
    "gen-2000-r3-uniform": (
        lambda: generate_instance(2000, 3, 3, 103, "uniform"),
        "df3ebf1c796e65b0d29bde6d2d00e4e80186b1fefa1dd9a9caefc3ff4f49cd40",
        "bf3c920cde6b7a3ee7cd4fb2d8b0f161768a03aadb258e41d14bb930ceae7bd6",
    ),
    "gen-5000-r3-minmax": (
        lambda: generate_instance(5000, 2, 3, 104, "minmax"),
        "1f8231c46511bb4b2b1d980a98bb14a44e8a1abbcb9817b7593c9038719bece3",
        "994d8f564ac292a9d3fc705965ac44af62a7aa6379d659ad2142511cf581bbee",
    ),
    "hard-1500-reserved-92": (
        lambda: hard_regime_school(1500, 105),
        "e8beb94bbeceecdeddd51ba3955562a98dd615fe4897f250265a963330ba37de",
        "ed7358d5ae5c0608e31b3b5283660db9c1a569798eca40df758a93a14399b344",
    ),
    "hard-1500-reserved-98": (
        lambda: hard_regime_school(1500, 107, reserved_percent=98),
        "2903137955d79530334e1d7f31c8bedb1f9109c188a3a5ff4b456eef8ffb2e14",
        "456e7155ac87fa329248d4e820513a9c98e7cdcf2a065b6ab5db778761d0b40e",
    ),
    "capacity-above-students": (
        lambda: generate_instance(300, 3, 2, 106, "uniform", capacity=400),
        "34b6bf3ea6f96e2d905c6f5bc5369ceca7f61b66553eb95ae831dc2be6ba9bd8",
        "abd57e99f03e0344a7f7b0df9f467045d581a06923c62b637e1a367379196d5e",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_solve_output_bytes_match_golden_digest(name, tmp_path):
    build, input_digest, output_digest = CORPUS[name]
    source = tmp_path / "instance.json"
    out = tmp_path / "result.json"
    files.write_text(files.dump_json(files.instance_to_payload(build())), str(source))
    assert _sha256(source) == input_digest
    assert main(["solve", str(source), "--out", str(out)]) == 0
    assert _sha256(out) == output_digest


# name -> (sha256 of `baseline --out`, of `validate --targets` stdout)
CHECKS = {
    "gen-50-r1-uniform": (
        "1426fb5e83a72d4445ab2ccb692101752f99b3c854a80b2ec86ca362beff5656",
        "054b42fa448431e4fdc4863105f04d37d9915f09e33f69fd9313844b661fb37d",
    ),
    "gen-400-r2-minmax": (
        "ef186586ae8c3b61b483856004343138bf39b2d44750cadf5535aec0ea876cd8",
        "e91317f66fe9ce2d2790b7059daca5eeaea71338c727f0b041afcaec5aa4f5ec",
    ),
    "gen-2000-r3-uniform": (
        "e3e58cd68f59804a4562b24957e3c6970c87c3ddcc970a2c638b7ebcb989c039",
        "2b29bd82ad692d883499996e8de61f7abff98444ca5caa44ad0339970361c644",
    ),
    "gen-5000-r3-minmax": (
        "5273c9b9d22a18623902271f9137ecc783cd0260872468c8fbfdf2b4c808a874",
        "2fbbccd7c84c5e69f8143d672469fbc61a72567052a9e3ea8612a0d7728e8eea",
    ),
    "hard-1500-reserved-92": (
        "7836aa24bf6af8c4fba84e912edd3e17cadc019fef7ab2c8c7cee1f6aeca18aa",
        "9d3ec6bfeacb63a5e8638db158eee9d310b6fe81570ba4bf0e21ffb7a750e3ad",
    ),
    "hard-1500-reserved-98": (
        "e4b7b05d774c678a9e0d4bf5a3ae416f4d9901449fd2d56b3da6e69e1ae53fc2",
        "dc271b54f3514375cedf6c886e454e42ba46119b5adb55c89dea2c5d4651b0dc",
    ),
    "capacity-above-students": (
        "5dc330b760c429cedfe3ed01460e4dd41d1a289207de3a8a5e2ee3cc75371080",
        "435c0a25ee25319b4ee03ab65ccd7860d241ddc7b30ed3e2909035c3769a1c09",
    ),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_baseline_and_validate_bytes_match_golden_digest(name, tmp_path, capsys):
    build, _input_digest, _output_digest = CORPUS[name]
    baseline_digest, validate_digest = CHECKS[name]
    instance = build()
    source = tmp_path / "instance.json"
    out = tmp_path / "baseline.json"
    targets = tmp_path / "targets.json"
    files.write_text(files.dump_json(files.instance_to_payload(instance)), str(source))
    assert main(["baseline", str(source), "--out", str(out)]) == 0
    assert _sha256(out) == baseline_digest
    _alpha, crucial = crucial_vector(instance)
    labels = {group_label(key): value for key, value in crucial.items()}
    files.write_text(files.dump_json(labels), str(targets))
    capsys.readouterr()
    assert main(["validate", str(source), "--targets", str(targets)]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == validate_digest


# gen arguments -> sha256 of the instance file it writes
GEN = {
    "--students 20000 --types 3 --ranks 1 --seed 1": (
        "61caaeef1e367e093e312c3682286469aa0ff90fbda53030bda69dfbb8aca582"
    ),
    "--students 500 --types 12 --ranks 3 --seed 7": (
        "ae123a8ce598cee40d34d00d705ba1c5bd6f17bc022ff443267fece2bd98c92b"
    ),
}


@pytest.mark.parametrize("args", sorted(GEN))
def test_gen_output_bytes_match_golden_digest(args, tmp_path):
    out = tmp_path / "instance.json"
    assert main(["gen", *args.split(), "--out", str(out)]) == 0
    assert _sha256(out) == GEN[args]


def _market_payload(multi) -> dict:
    """A MultiInstance as a multi-school file payload."""
    keys = multi.columns.group_keys
    return {
        "types": sorted(multi.types),
        "students": [
            {"id": sid, "types": list(keys[g])}
            for sid, g in zip(multi.columns.ids, multi.columns.group_index)
        ],
        "schools": [
            {
                "id": c.id,
                "capacity": c.capacity,
                "quotas": [
                    {"type": t, "rank": rank, "quota": count}
                    for (t, rank), count in sorted(c.quotas.items())
                ],
                "priority": list(c.priority),
            }
            for c in multi.schools
        ],
        "preferences": {sid: list(p) for sid, p in multi.preferences.items()},
    }


# (students, seed) -> (sha256 of `gda --out`, of `gda --probe` stdout); the
# probe asks the first school about two students a third and two thirds
# down its priority list, and finds no violation in any of these markets
MARKETS = {
    (200, 1): (
        "86b8a93dd7a54dec464439f90de3a687ce98409eedefb9b6fc5ee608bddcea63",
        "baf45be02e79be7387d1330456e289dec675774a7e23c71df364b16504a21c90",
    ),
    (200, 2): (
        "73e2d5fcd6374abc2841073ba1a5e2738ddfe5ffde20acfba0adec9001846266",
        "baf45be02e79be7387d1330456e289dec675774a7e23c71df364b16504a21c90",
    ),
    (2000, 1): (
        "20df53a8e899470cd112b6975ee45d030fddc869ca075094a892352d5ee46640",
        "baf45be02e79be7387d1330456e289dec675774a7e23c71df364b16504a21c90",
    ),
    (2000, 2): (
        "1f331ba5e40c8eb3f25f261967b9422e8259be373a22da6e3d4b880af2bbb761",
        "baf45be02e79be7387d1330456e289dec675774a7e23c71df364b16504a21c90",
    ),
}


@pytest.mark.parametrize("size,seed", sorted(MARKETS))
def test_gda_output_bytes_match_golden_digest(size, seed, tmp_path, capsys):
    gda_digest, probe_digest = MARKETS[(size, seed)]
    multi = seeded_market(size, seed)
    source = tmp_path / "multi.json"
    out = tmp_path / "result.json"
    files.write_text(files.dump_json(_market_payload(multi)), str(source))
    assert main(["gda", str(source), "--out", str(out)]) == 0
    assert _sha256(out) == gda_digest
    school = multi.schools[0]
    order = school.priority
    probe = f"{school.id}:{order[len(order) // 3]}:{order[2 * len(order) // 3]}"
    capsys.readouterr()
    assert main(["gda", str(source), "--probe", probe]) in (0, 1)
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == probe_digest
