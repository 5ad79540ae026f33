"""Every import in the package's modules is used.

No linter runs on this repository, so deletions can leave stale imports
behind. `__init__.py` is exempt: its imports are the public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reserve_match"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in source reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom x import y as z, w\nos.getcwd(); w()\n"
    assert unused_imports(source) == ["a (line 2)", "z (line 3)"]


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    stale = {
        p.name: found
        for p in modules
        if (found := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert stale == {}
