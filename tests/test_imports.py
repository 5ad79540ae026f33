"""Every import in the package's modules is used, and so is every private
top-level name.

No linter runs on this repository, so deletions can leave stale imports
and orphaned private helpers behind. `__init__.py` is exempt from the import
check: its imports are the public re-exports.
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


def unread_private_names(sources: list[str]) -> list[str]:
    """Top-level `_name`s defined in some source that no source reads."""
    defined: list[str] = []
    read: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        name
        for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_unread_private_names_are_found():
    used = "def _kept(): pass\n_LIMIT = 3\n"
    reader = "from m import _kept\n_kept(); m._LIMIT\n"
    stale = "def _by_priority(): pass\nclass _Old: pass\n_x: int = 1\n"
    assert unread_private_names([used, reader, stale]) == ["_by_priority", "_Old", "_x"]


def test_package_private_names_are_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
