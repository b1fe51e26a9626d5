"""Every script under ``examples/`` runs to completion.

The examples call the public API the way a user would, so a rename or a
removal that the unit tests do not name shows up here.  Each script runs in
a subprocess with the checkout's ``src`` directory on ``PYTHONPATH`` (the
environment is inherited, ``REPRO_COMPILED`` included) and a temporary
working directory, because some examples write files into their working
directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
