"""The public API: the demos and README's Python blocks run, the trace
format's example in the ``traceio`` docstring parses, the package top level
exports exactly the names its callers import from it plus the exception
types, and every name the demos and the benchmark import from a submodule
exists in it."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cutlattice
from cutlattice import traceio

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Scripts outside the package that import from its top level.
CALLERS = DEMOS + [ROOT / "perfbench" / "workloads.py"]
# Every script outside the package, for imports from its submodules.
SCRIPTS = DEMOS + sorted((ROOT / "perfbench").glob("*.py"))


def package_imports(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` pairs a script imports with ``from cutlattice[.<sub>] import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and not node.level
        and (node.module or "").split(".")[0] == "cutlattice"
        for alias in node.names
    }


# The ```python blocks of README.md, in order.
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)


def run_python(argv: list[str]) -> subprocess.CompletedProcess:
    """Run Python on ``argv`` with the package's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block-{i}" for i in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    done = run_python(["-c", block])
    assert done.returncode == 0, done.stderr


def test_traceio_docstring_example_parses():
    """The format example in the ``traceio`` module docstring, its first
    indented block, is a valid trace."""
    example = re.search(r"\n\n((?: {4}.*\n)+)", traceio.__doc__).group(1)
    doc = traceio.parse_document(textwrap.dedent(example))
    assert (doc.name, doc.seed, doc.n, len(doc.records)) == ("d100", 1, 10, 3)


def test_all_names_import():
    namespace: dict = {}
    exec("from cutlattice import *", namespace)
    assert set(cutlattice.__all__) <= namespace.keys()


@pytest.mark.parametrize("caller", CALLERS, ids=lambda p: p.name)
def test_caller_imports_are_exported(caller):
    used = {name for module, name in package_imports(caller) if module == "cutlattice"}
    assert used, f"{caller.name} imports nothing from cutlattice"
    assert used <= set(cutlattice.__all__), used - set(cutlattice.__all__)


def test_exports_are_imported_by_a_caller():
    """The reverse of the test above: a top-level name no caller imports,
    other than an exception type, is imported from its submodule instead."""
    used = {
        name
        for caller in CALLERS
        for module, name in package_imports(caller)
        if module == "cutlattice"
    }
    exported = {name: getattr(cutlattice, name) for name in cutlattice.__all__}
    unused = {
        name
        for name, obj in exported.items()
        if name not in used and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert not unused, unused


def test_submodule_imports_resolve():
    pairs = {
        (path.name, module, name)
        for path in SCRIPTS
        for module, name in package_imports(path)
        if module != "cutlattice"
    }
    assert pairs, "no script imports from a cutlattice submodule"
    missing = sorted(
        (script, module, name)
        for script, module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, missing
