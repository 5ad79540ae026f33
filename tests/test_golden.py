"""Golden corpus: `solve` output bytes on fixed instances must never drift.

Each case builds a seeded instance, writes it as an instance file, runs the
CLI's `solve` on it and compares the sha256 of both files with digests
recorded with the earlier one-check-per-admission solver. The input digest
guards the corpus itself; the output digest guards the selection, counts,
signature, alpha and targets byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest
from factories import hard_regime_school

from reserve_match import files
from reserve_match.cli import main
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
