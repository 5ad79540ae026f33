"""Every import in the package's modules is used, and so is every private
top-level name; and the engine reads students from their columns only.

No linter runs on this repository, so deletions can leave stale imports
and orphaned private helpers behind. `__init__.py` is exempt from the import
check: its imports are the public re-exports.

StudentRecord is a boundary view for callers that pass or ask for records:
only model builds it, gda names it in type hints, and no module reads a
record's type set or a records or students view outside those views
themselves.
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


# The attributes of the StudentRecord boundary view: a record's type set, the
# columns' records and the instances' students
VIEWS = ("type_set", "records", "students")


def view_reads(source: str) -> list[str]:
    """Reads of a VIEWS attribute, directly or through attrgetter, each as
    "function: expression" for the innermost function that makes it."""
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in VIEWS
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "attrgetter"
            and any(
                isinstance(a, ast.Constant) and a.value in VIEWS for a in node.args
            )
        ):
            found.append(f"{scope}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_view_reads_are_found():
    source = (
        "def f(s, c):\n"
        "    c.records = ()\n"
        "    g = lambda r: r.type_set\n"
        "    return s.students, attrgetter('type_set'), c.ids\n"
    )
    assert view_reads(source) == [
        "f: r.type_set", "f: s.students", "f: attrgetter('type_set')"
    ]


# The only reads the package makes: the record constructor and the two
# students views themselves, and two fields that merely share the name
# students (the --students option and a bench row's student count)
VIEW_READS = {
    "bench.py": ["bench_payload: r.students", "bench_payload: r.students"],
    "cli.py": [
        "cmd_gen: args.students", "cmd_gen: args.students", "cmd_bench: args.students"
    ],
    "gda.py": ["students: self.columns.records"],
    "model.py": [
        "from_records: attrgetter('type_set')",
        "students: self.columns.records",
    ],
}


def test_engine_reads_no_student_records():
    reads = {
        p.name: found
        for p in sorted(PACKAGE.glob("*.py"))
        if (found := view_reads(p.read_text(encoding="utf-8")))
    }
    assert reads == VIEW_READS


def record_mentions(source: str) -> list[str]:
    """Each mention of StudentRecord: "class", "import", "hint" (inside an
    annotation) or "code"."""
    tree = ast.parse(source)
    hinted: set[int] = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            annotations = [p.annotation for p in params if p is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            hinted.update(map(id, ast.walk(annotation)))
    mentions = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "StudentRecord":
            mentions.append("class")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            alias.name == "StudentRecord" for alias in node.names
        ):
            mentions.append("import")
        elif isinstance(node, ast.Name) and node.id == "StudentRecord":
            mentions.append("hint" if id(node) in hinted else "code")
    return mentions


def test_record_mentions_are_found():
    source = (
        "from m import StudentRecord\n"
        "def f(s: list[StudentRecord]) -> StudentRecord:\n"
        "    x: StudentRecord = StudentRecord('a', frozenset())\n"
        "    return map(StudentRecord, s)\n"
    )
    assert sorted(record_mentions(source)) == [
        "code", "code", "hint", "hint", "hint", "import"
    ]


def test_only_model_makes_student_records():
    mentions = {
        p.name: set(record_mentions(p.read_text(encoding="utf-8")))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    # model defines and builds the records view; gda names it in hints for
    # its record-taking constructor; __init__ re-exports it
    assert {"class", "code"} <= mentions.pop("model.py")
    assert mentions.pop("gda.py") == {"import", "hint"}
    assert mentions.pop("__init__.py") == {"import"}
    assert {name: found for name, found in mentions.items() if found} == {}
