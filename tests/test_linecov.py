"""``tools/linecov.py`` lists the executable lines a traced call skips, and
only those."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from linecov import executable_lines, missed, traced  # noqa: E402

SOURCE = '''\
def pick(x):
    """A docstring is no executable line."""
    if x:
        y = 1
    else:
        y = 2
    return y
'''


def test_a_skipped_line_is_listed_and_a_run_one_is_not(tmp_path):
    path = tmp_path / "picker.py"
    path.write_text(SOURCE)

    def load_and_call():
        spec = importlib.util.spec_from_file_location("picker", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.pick(True)

    result, ran = traced(load_and_call, tmp_path)
    assert result == 1
    assert executable_lines(path) == {1, 3, 4, 6, 7}
    # the else branch is skipped; the def, the test, its branch and the
    # return all run
    assert missed(path, ran) == [6]
    # nothing outside the traced directory is recorded
    assert set(ran) == {str(path.resolve())}
