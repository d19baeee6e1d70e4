import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (x +
            math.pi)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_token_lines_outside_comments_and_docstrings():
    # import; def; text, and the string's second line; return and its
    # continuation; class; y
    assert code_lines.code_lines(SOURCE) == 8
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 17}
