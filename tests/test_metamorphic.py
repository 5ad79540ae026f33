"""Metamorphic relations of `solve`, `verify` and `gda`, checked without an
oracle.

Two changes to an instance file that must not change the answer:

- shuffling the `students` and `quotas` arrays: the file lists the same
  school, so `solve` writes the same bytes, and `verify` and `validate`
  print the same lines;
- renaming the types in reverse order (t1 <-> tk, and so on, in the
  students and the quotas alike): the school is the same up to the names,
  so `solve` selects the same students, and `verify` gives the same
  verdicts and envy witness on any selection.

One change to a multi-school file that must not change the answer:

- shuffling the `schools` and `students` arrays and the key order of
  `preferences`: the file lists the same market, so `gda --out` writes the
  same bytes and `gda --probe` prints the same lines.

No relation needs a reference answer, so they run at sizes far above the
enumeration oracle's: the single-school ones up to 3,000 students with 2 to
4 types and both quota styles, the market one on `factories.seeded_market`
up to 2,000 students (Chen et al., "Metamorphic testing: a review", ACM
Computing Surveys 51(1), 2018).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from factories import market_payload, seeded_market
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reserve_match.cli import main
from reserve_match.files import dump_json, instance_to_payload
from reserve_match.generator import QUOTA_STYLES, generate_instance

RELATION_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def payloads(draw: st.DrawFn) -> dict:
    instance = generate_instance(
        draw(st.integers(0, 3000)),
        draw(st.integers(2, 4)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 10**6)),
        draw(st.sampled_from(QUOTA_STYLES)),
    )
    return instance_to_payload(instance)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def write(folder, name: str, payload: dict) -> str:
    path = folder / f"{name}.json"
    path.write_text(dump_json(payload), encoding="utf-8")
    return str(path)


def solve_and_verify(folder, name: str, payload: dict) -> tuple[bytes, str]:
    """`solve` output bytes and `verify` stdout for one instance payload."""
    instance = write(folder, name, payload)
    result = folder / f"{name}-result.json"
    assert run(["solve", instance, "--out", str(result)]) == (0, "")
    code, out = run(["verify", instance, str(result)])
    assert code == 0, out
    return result.read_bytes(), out


def shuffled(payload: dict, rng) -> dict:
    """The payload with its students and quotas arrays in another order."""
    out = dict(payload)
    for field in ("students", "quotas"):
        out[field] = rng.sample(payload[field], len(payload[field]))
    return out


def reversed_type_names(payload: dict) -> dict:
    """The payload with type i of k renamed to type k + 1 - i."""
    names = payload["types"]
    rename = dict(zip(names, reversed(names)))
    out = dict(payload)
    out["students"] = [
        {"id": s["id"], "types": sorted(rename[t] for t in s["types"])}
        for s in payload["students"]
    ]
    out["quotas"] = [dict(q, type=rename[q["type"]]) for q in payload["quotas"]]
    return out


@RELATION_SETTINGS
@given(payloads(), st.randoms(use_true_random=False))
def test_shuffled_arrays_keep_solve_and_verify_outputs(
    tmp_path_factory, payload, rng
):
    folder = tmp_path_factory.mktemp("shuffle")
    assert solve_and_verify(folder, "shuffled", shuffled(payload, rng)) == (
        solve_and_verify(folder, "original", payload)
    )


@RELATION_SETTINGS
@given(payloads(), st.randoms(use_true_random=False))
def test_shuffled_arrays_keep_validate_output(tmp_path_factory, payload, rng):
    # the solver's targets are valid; a shifted copy of them usually is not
    folder = tmp_path_factory.mktemp("validate")
    result, _verdicts = solve_and_verify(folder, "original", payload)
    targets = json.loads(result)["targets"]
    for label in rng.sample(sorted(targets), min(2, len(targets))):
        targets[label] += rng.choice((-1, 1))
    argv = ["--targets", write(folder, "targets", targets)]
    before = run(["validate", write(folder, "original", payload), *argv])
    shuffled_file = write(folder, "shuffled", shuffled(payload, rng))
    assert run(["validate", shuffled_file, *argv]) == before


@RELATION_SETTINGS
@given(payloads())
def test_reversed_type_names_keep_the_selection(tmp_path_factory, payload):
    folder = tmp_path_factory.mktemp("rename")

    def selected(name: str, payload: dict) -> list[str]:
        result, _verdicts = solve_and_verify(folder, name, payload)
        return json.loads(result)["selected"]

    renamed = reversed_type_names(payload)
    assert selected("renamed", renamed) == selected("original", payload)


@RELATION_SETTINGS
@given(payloads(), st.randoms(use_true_random=False))
def test_reversed_type_names_keep_verify_verdicts(tmp_path_factory, payload, rng):
    # a solver output with up to two members swapped for outsiders, so some
    # verdicts fail and envy witnesses occur
    folder = tmp_path_factory.mktemp("verdicts")
    result, _verdicts = solve_and_verify(folder, "original", payload)
    chosen = json.loads(result)["selected"]
    others = sorted({s["id"] for s in payload["students"]} - set(chosen))
    k = rng.randint(0, min(2, len(chosen), len(others)))
    selected = rng.sample(chosen, len(chosen) - k) + rng.sample(others, k)
    result = write(folder, "selected", {"selected": selected})
    before = run(["verify", write(folder, "original", payload), result])
    renamed = reversed_type_names(payload)
    assert run(["verify", write(folder, "renamed", renamed), result]) == before


def shuffled_market(payload: dict, rng) -> dict:
    """The market payload with its schools and students arrays and its
    preferences' keys in another order."""
    out = dict(payload)
    for field in ("schools", "students"):
        out[field] = rng.sample(payload[field], len(payload[field]))
    keys = rng.sample(list(payload["preferences"]), len(payload["preferences"]))
    out["preferences"] = {sid: payload["preferences"][sid] for sid in keys}
    return out


def gda_and_probe(folder, name: str, payload: dict, probe: str) -> tuple[bytes, tuple]:
    """`gda --out` bytes and the `gda --probe` exit code and stdout."""
    market = write(folder, name, payload)
    result = folder / f"{name}-result.json"
    assert run(["gda", market, "--out", str(result)]) == (0, "")
    return result.read_bytes(), run(["gda", market, "--probe", probe])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(25, 2000),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
@example(2000, 1, random.Random(1))
@example(2000, 2, random.Random(2))
@example(2000, 3, random.Random(3))
def test_shuffled_market_keeps_gda_outputs(tmp_path_factory, size, seed, rng):
    folder = tmp_path_factory.mktemp("market")
    multi = seeded_market(size, seed)
    payload = market_payload(multi)
    # the first school, about two students a third and two thirds down its list
    school = multi.schools[0]
    order = school.priority
    probe = f"{school.id}:{order[len(order) // 3]}:{order[2 * len(order) // 3]}"
    assert gda_and_probe(folder, "shuffled", shuffled_market(payload, rng), probe) == (
        gda_and_probe(folder, "original", payload, probe)
    )
