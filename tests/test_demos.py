"""Each demo runs to completion against the package in ``src/``.

The demos call public names (``aggregate``, ``explanation_score``,
``Snapshot.binding_of``, ``select_exrc_threshold``, ...) that no other test
reaches through a script, so a rename that breaks them fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # numpy warnings fail here as they fail the rest of the suite
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    if demo.name == "01_worked_example.py":
        # the paper's worked verdict, once the emission threshold admits it
        assert "root causes: [['Province=Beijing']]" in done.stdout.splitlines()
