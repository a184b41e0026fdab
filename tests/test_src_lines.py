"""``tools/src_lines.py``: the split of ``src/asymloc/*.py`` lines by kind
that the line-count gates read."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""Module docstring.

Its second paragraph."""
# a full-line comment
x = 1  # code with a trailing comment


def f():
    """One-line docstring."""
    return x
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path):
    """A checkout with one module under ``src/asymloc`` and one file outside it."""
    (tmp_path / "src" / "asymloc").mkdir(parents=True)
    (tmp_path / "src" / "asymloc" / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("import mod\n")
    return tmp_path


def test_each_line_counts_as_its_kind(src_lines, checkout):
    # docstring: lines 1, 3, 9; blank: 2 (inside the docstring), 6, 7;
    # comment: 4; code: 5 (trailing comment), 8, 10; the file outside the
    # package adds nothing
    assert src_lines.count(str(checkout)) == {"code": 3, "docstring": 3, "comment": 1, "blank": 3}


def test_checkout_argument_counts_the_given_root(src_lines, checkout, capsys):
    src_lines.main(["src_lines.py", str(checkout)])
    assert capsys.readouterr().out == "src/ lines: 10 (3 code, 3 docstring, 1 comment, 3 blank)\n"


def test_default_root_is_the_tools_checkout(src_lines, capsys):
    n = src_lines.count(str(TOOL.parents[1]))
    src_lines.main(["src_lines.py"])
    split = ", ".join(f"{v} {k}" for k, v in n.items())
    assert capsys.readouterr().out == f"src/ lines: {sum(n.values())} ({split})\n"
