"""tools/codelines.py: the count on a known snippet and on a path."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "codelines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
on two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """A docstring."""

    return (x +
            1)


TEXT = """a string
that is code"""
"not a docstring, but a statement of strings alone"
'''


def test_counts_the_lines_that_hold_code():
    # import, def, return over two lines, and TEXT's assignment over two
    assert _tool().code_lines(SNIPPET) == 6


def test_counts_every_file_under_a_path(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    tool = _tool()
    assert tool.count_path(tmp_path / "pkg") == 7
    assert tool.count_path(tmp_path / "pkg" / "b.py") == 1
