"""Every file and test that the code and the docs point at exists.

Scans the ``*.py`` files under ``src/``, ``tests/``, ``scripts/``,
``benchmarks/`` and ``examples/``, plus README.md, perfbench/README.md
and the CI workflow, for three kinds of reference:

* a repo-relative path under a top-level directory that names a file
  (last component has an extension) or a directory (trailing ``/``);
  it must exist;
* a root-level Markdown name such as ``ROADMAP.md``; it must exist at
  the repo root;
* a pytest node id ``<file>.py::Class::test`` (or ``::Class`` or
  ``::function``); the file must define that class and function.

A deletion that leaves a stale pointer behind fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "scripts", "benchmarks", "examples")
SCANNED_DOCS = ("README.md", "perfbench/README.md",
                ".github/workflows/ci.yml")

_TOP = r"(?:src|tests|scripts|benchmarks|examples|perfbench|\.github)/"
PATH_RE = re.compile(r"(?<![\w./-])(" + _TOP + r"[\w./-]*)")
NODE_RE = re.compile(r"(?<![\w./-])(" + _TOP
                     + r"[\w/-]+\.py)::(\w+)(?:::(\w+))?")
MD_RE = re.compile(r"(?<![\w./-])([A-Za-z][\w-]*\.md)\b")


def _definitions(path: Path) -> dict:
    """Top-level classes (with their method names) and functions."""
    names = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = {
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = set()
    return names


def dangling(text: str) -> list:
    """The references in ``text`` that point at nothing."""
    missing = []
    for match in PATH_RE.finditer(text):
        path = match.group(1).rstrip(".")
        if path.endswith("/") or "." in path.rsplit("/", 1)[-1]:
            if not (ROOT / path).exists():
                missing.append(path)
    for match in MD_RE.finditer(text):
        if not (ROOT / match.group(1)).is_file():
            missing.append(match.group(1))
    for match in NODE_RE.finditer(text):
        path, outer, inner = match.groups()
        node = match.group(0)
        if not (ROOT / path).is_file():
            continue  # already reported as a missing path
        names = _definitions(ROOT / path)
        if outer not in names or (inner is not None
                                  and inner not in names[outer]):
            missing.append(node)
    return missing


def test_referenced_files_and_tests_exist():
    sources = [path for directory in SCANNED_DIRS
               for path in sorted((ROOT / directory).rglob("*.py"))
               if path != Path(__file__).resolve()]
    sources += [ROOT / doc for doc in SCANNED_DOCS]
    found = {}
    for source in sources:
        missing = dangling(source.read_text())
        if missing:
            found[str(source.relative_to(ROOT))] = missing
    assert not found, f"dangling references: {found}"


def test_scanner_flags_dangling_references():
    """The guard is not vacuous: each kind of stale pointer is caught,
    live ones and prose like 'tests/inspection' are not."""
    text = """
        See src/repro/sim/system.py, tests/sim/ and README.md.
        Gone: src/repro/sim/legacy.py and NOTES.md.
        tests/sim/test_system.py::TestShapes::test_one_mmu_per_core
        tests/sim/test_system.py::TestShapes::test_removed
        tests/sim/test_system.py::TestRemoved
        Used for tests/inspection only.
    """
    assert dangling(text) == [
        "src/repro/sim/legacy.py",
        "NOTES.md",
        "tests/sim/test_system.py::TestShapes::test_removed",
        "tests/sim/test_system.py::TestRemoved",
    ]
