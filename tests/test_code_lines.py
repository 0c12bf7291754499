"""``tools/code_lines.py``, the count that changes to the package's size
are stated in, on a file whose count is known line by line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment on a line of its own
import os  # 1


def f(x):  # 2
    """A function docstring."""

    # another comment
    y = (x +  # 3
         1 +  # 4
         2)  # 5
    z = os.sep.join(["""a string  # 6
inside  # 7
an expression"""])  # 8
    return y, z  # 9
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_counts_only_lines_that_hold_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert _code_lines()(path) == 9
