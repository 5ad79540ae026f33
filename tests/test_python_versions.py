"""Output identity across Python versions.

The loaders decode with each version's C JSON scanner and the engine
leans on each version's dicts, sorts and integer arithmetic, so the golden
`solve`, `baseline`, `validate`, `gen` and `gda` cases, and `verify` of
each golden `solve` output, are run again under every other Python the
machine has in its pyenv versions directory (`$PYENV_ROOT/versions`, by
default `~/.pyenv/versions`) that the package supports, and their output
digests are compared with the running interpreter's. The CLI needs only the
standard library, so those interpreters need no test packages. The inputs
are written once, by the running interpreter; the test is skipped when no
other interpreter is found.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from factories import market_payload, seeded_market
from test_golden import CHECKS, CORPUS, GEN, MARKETS

from reserve_match import files
from reserve_match.flow import crucial_vector
from reserve_match.model import group_label

SRC = Path(__file__).resolve().parents[1] / "src"
# pyproject.toml's requires-python
OLDEST = (3, 10)

# Runs each case's command through cli.main and prints {case: [exit code,
# sha256 of its --out file or, without one, of its stdout]} as JSON.
DRIVER = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from reserve_match.cli import main
digests = {}
for name, argv, out in json.loads(Path(sys.argv[1]).read_text("utf-8")):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(argv)
    data = Path(out).read_bytes() if out else stdout.getvalue().encode("utf-8")
    digests[name] = [status, hashlib.sha256(data).hexdigest()]
print(json.dumps(digests, sort_keys=True))
"""

VERSION = "import sys; print(*sys.version_info[:3])"


def _other_interpreters() -> list[str]:
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for python in sorted(root.glob("*/bin/python3")):
        try:
            reply = subprocess.run(
                [str(python), "-c", VERSION], capture_output=True, text=True,
                timeout=60, check=True,
            ).stdout.split()
        except (OSError, subprocess.SubprocessError):
            continue
        version = tuple(map(int, reply))
        if version[:2] >= OLDEST and version != tuple(sys.version_info[:3]):
            found.append(str(python))
    return found


def _cases(tmp_path: Path) -> list[tuple[str, list[str], str | None]]:
    """(name, CLI arguments, output file or None for stdout) of every golden
    solve, baseline, validate (of the crucial vector), gen and gda case, and
    of verify on each solve's output, with their inputs written under
    tmp_path."""
    cases = []
    for name, (build, _input, _output) in sorted(CORPUS.items()):
        instance = build()
        source = str(tmp_path / f"{name}.json")
        files.write_json(files.instance_to_payload(instance), source)
        out = str(tmp_path / f"{name}-solve.json")
        cases.append((f"solve {name}", ["solve", source, "--out", out], out))
        cases.append((f"verify {name}", ["verify", source, out], None))
        base = str(tmp_path / f"{name}-baseline.json")
        cases.append((f"baseline {name}", ["baseline", source, "--out", base], base))
        targets = str(tmp_path / f"{name}-targets.json")
        _alpha, crucial = crucial_vector(instance)
        files.write_json({group_label(k): v for k, v in crucial.items()}, targets)
        cases.append(
            (f"validate {name}", ["validate", source, "--targets", targets], None)
        )
    for index, args in enumerate(sorted(GEN)):
        out = str(tmp_path / f"gen-{index}.json")
        cases.append((f"gen {args}", ["gen", *args.split(), "--out", out], out))
    for size, seed in sorted(MARKETS):
        multi = seeded_market(size, seed)
        source = str(tmp_path / f"market-{size}-{seed}.json")
        files.write_json(market_payload(multi), source)
        out = str(tmp_path / f"market-{size}-{seed}-gda.json")
        cases.append((f"gda {size} {seed}", ["gda", source, "--out", out], out))
        school = multi.schools[0]
        order = school.priority
        probe = f"{school.id}:{order[len(order) // 3]}:{order[2 * len(order) // 3]}"
        cases.append((f"probe {size} {seed}", ["gda", source, "--probe", probe], None))
    return cases


def _digests(python: str, spec: Path) -> dict[str, list]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [python, "-c", DRIVER, str(spec)], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_golden_outputs_are_the_same_under_every_other_python(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other supported Python in the pyenv versions directory")
    spec = tmp_path / "cases.json"
    spec.write_text(json.dumps(_cases(tmp_path)), encoding="utf-8")
    ours = _digests(sys.executable, spec)
    # the running interpreter's digests are the recorded golden ones (verify
    # has none recorded, so it is only compared across interpreters)
    recorded = {f"solve {name}": digest for name, (_b, _i, digest) in CORPUS.items()}
    for name, (baseline, validate) in CHECKS.items():
        recorded[f"baseline {name}"] = baseline
        recorded[f"validate {name}"] = validate
    recorded.update((f"gen {args}", digest) for args, digest in GEN.items())
    for (size, seed), (gda, probe) in MARKETS.items():
        recorded[f"gda {size} {seed}"] = gda
        recorded[f"probe {size} {seed}"] = probe
    assert {name: ours[name][1] for name in recorded} == recorded
    assert all(ours[f"verify {name}"][0] == 0 for name in CORPUS)
    for python in others:
        assert _digests(python, spec) == ours, python
