"""The benchmark runs end to end and accepts its own reports.

A crash on the verdict path, or a report that the benchmark's checks
reject, fails here instead of only in a benchmark run.  One short pass of
``count-20k`` takes several seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_count_20k_runs_clean():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-20k", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
