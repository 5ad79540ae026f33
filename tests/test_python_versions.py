"""Output identity across Python versions.

The loaders decode with each version's C JSON scanner and the engine
leans on each version's dicts, sorts and integer arithmetic, so the golden
`solve`, `gen` and `gda` cases are run again under every other Python the
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
from test_golden import CORPUS, GEN, MARKETS

from reserve_match import files

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
    solve, gen and gda case, with their inputs written under tmp_path."""
    cases = []
    for name, (build, _input, _output) in sorted(CORPUS.items()):
        source = tmp_path / f"{name}.json"
        files.write_json(files.instance_to_payload(build()), str(source))
        out = str(tmp_path / f"{name}-solve.json")
        cases.append((f"solve {name}", ["solve", str(source), "--out", out], out))
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
    # the running interpreter's digests are the recorded golden ones
    recorded = {f"solve {name}": digest for name, (_b, _i, digest) in CORPUS.items()}
    recorded.update((f"gen {args}", digest) for args, digest in GEN.items())
    for (size, seed), (gda, probe) in MARKETS.items():
        recorded[f"gda {size} {seed}"] = gda
        recorded[f"probe {size} {seed}"] = probe
    assert {name: digest for name, (_s, digest) in ours.items()} == recorded
    for python in others:
        assert _digests(python, spec) == ours, python
