"""Importing rootdrill stays light.

numpy is the only runtime dependency.  Loading scipy would add its import
time to every launch of the command line tool and to the benchmark's
``setup_s``; scipy serves the tests alone, as an oracle.  The process pool
of ``evaluate --workers`` is imported when a pool starts, since
``multiprocessing`` would bring sockets, subprocesses and logging along to
every launch.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rootdrill; print(*sys.modules, sep='\\n')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "rootdrill.localize" in modules
    return modules


def test_import_loads_no_scipy():
    modules = imported_modules()
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_import_loads_no_process_pool():
    modules = imported_modules()
    assert "multiprocessing" not in modules
    assert "concurrent.futures.process" not in modules
