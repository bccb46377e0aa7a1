"""Importing rootdrill stays light.

The package uses ``scipy.special`` only.  A module of ``scipy.stats``,
``scipy.sparse``, ``scipy.linalg`` or ``scipy.optimize`` imported anywhere
in it would add its load time to every launch of the command line tool and
to the benchmark's ``setup_s``; this test fails on the first such import.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.stats", "scipy.sparse", "scipy.linalg", "scipy.optimize")


def test_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rootdrill; print(*sys.modules, sep='\\n')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "rootdrill.localize" in modules and "scipy.special" in modules
    heavy = [m for m in modules if m in HEAVY or m.startswith(tuple(h + "." for h in HEAVY))]
    assert heavy == []
