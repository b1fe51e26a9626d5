"""Public-API surface tests: everything advertised in ``__all__`` must exist.

These tests protect downstream users: renaming or dropping a symbol that the
README or the examples rely on must fail the suite, and the top-level
re-exports must stay importable without pulling in optional machinery.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.analysis",
    "repro.generator",
    "repro.simulation",
    "repro.ilp",
    "repro.experiments",
    "repro.extensions",
    "repro.io",
    "repro.visualization",
    "repro.cli",
]


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_import_cleanly(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} must define __all__"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_top_level_reexports_resolve():
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"


def test_readme_quickstart_symbols_exist():
    # The exact names used in README.md's quickstart snippet.
    for name in (
        "DagTask",
        "transform",
        "homogeneous_response_time",
        "heterogeneous_response_time",
        "simulate",
        "Platform",
    ):
        assert hasattr(repro, name)


def test_cli_entry_point_matches_pyproject():
    from repro.cli import main

    assert callable(main)


def test_serving_and_experiment_imports_leave_scipy_out():
    # scipy costs more to import than the rest of the package; only the
    # ILP path uses it, so it is imported where the ILP runs.  A fresh
    # interpreter, because this one has imported everything already.
    modules = [
        "repro",
        "repro.service",
        "repro.service.http",
        "repro.experiments",
        "repro.experiments.figure6",
    ]
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    source = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source)},
        timeout=120,
    )
    assert result.stdout.strip() == "[]", result.stdout
