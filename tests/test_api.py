"""The public API: the demos run, and every name their callers import from
the package top level is exported there."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutlattice

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Scripts outside the package that import from its top level.
CALLERS = DEMOS + [ROOT / "perfbench" / "workloads.py"]


def top_level_imports(path: Path) -> set[str]:
    """Names a script imports with ``from cutlattice import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cutlattice" and not node.level
        for alias in node.names
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_all_names_import():
    namespace: dict = {}
    exec("from cutlattice import *", namespace)
    assert set(cutlattice.__all__) <= namespace.keys()


@pytest.mark.parametrize("caller", CALLERS, ids=lambda p: p.name)
def test_caller_imports_are_exported(caller):
    used = top_level_imports(caller)
    assert used, f"{caller.name} imports nothing from cutlattice"
    assert used <= set(cutlattice.__all__), used - set(cutlattice.__all__)
