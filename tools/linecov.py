"""The lines of ``src/rootdrill`` that no test runs.

Run from the repository root, with any pytest arguments:

    python3 tools/linecov.py            # the whole suite
    python3 tools/linecov.py -q tests/test_cli.py

pytest runs in this process under ``sys.settrace`` and
``threading.settrace``, which follow only frames whose code lies in
``src/rootdrill``.  Then one ``path:line: text`` is printed per executable
line that none of them ran, and the exit code is pytest's.  The executable
lines are those the compiled code objects map instructions to
(``co_lines()``), less each function's own first line: its ``def``, run by
the enclosing code, stands for it.  Lines run in worker processes are not
seen.  A test that times its code may fail under the tracer's slowdown;
the lines it ran still count.  Only the standard library is needed.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path: Path) -> set[int]:
    """The lines of the Python file ``path`` that some instruction maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        head = code.co_firstlineno if code.co_name != "<module>" else None
        # line 0 (or None) marks set-up instructions of no source line
        lines |= {n for _, _, n in code.co_lines() if n and n != head}
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def traced(fn, root: Path):
    """Call ``fn()`` with every thread's line events recorded for the code
    under the directory ``root``; return its result and the lines run, as
    {real path: line numbers}.  A tracer already set is set again after."""
    root_dir = os.path.join(os.path.realpath(root), "")
    ran: dict[str, set[int]] = defaultdict(set)
    where: dict[CodeType, str | None] = {}  # its real path when under root

    def line(frame, event, arg):
        if event == "line":
            ran[where[frame.f_code]].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code not in where:
            path = os.path.realpath(code.co_filename)
            where[code] = path if path.startswith(root_dir) else None
        return line if where[code] else None

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        return fn(), ran
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])


def missed(path: Path, ran: dict[str, set[int]]) -> list[int]:
    """The executable lines of ``path`` that ``ran`` does not hold, ascending."""
    return sorted(executable_lines(path) - ran.get(os.path.realpath(path), set()))


def main(argv: list[str]) -> int:
    src = ROOT / "src" / "rootdrill"
    # on the path of this process and of the subprocesses that tests start
    sys.path.insert(0, str(ROOT / "src"))
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    import pytest

    status, ran = traced(lambda: pytest.main(argv), src)
    n_missed = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for n in missed(path, ran):
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
            n_missed += 1
    print(f"{n_missed} executable lines of {src.relative_to(ROOT)} not run", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
