"""tools/codelines.py on a hand-written module: docstrings, comments and
blank lines are not code lines; every line of a multi-line string that is
not a docstring, and of a multi-line expression, is."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# the code lines are marked "# code" at the end, or "code" in the string that
# spans them
MODULE = '''\
"""Module docstring,
on two lines."""

import os  # code

# a whole-line comment


class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Function docstring

        over three lines."""
        text = """code: a string
that is not a docstring, code"""
        return (text +  # code
                os.sep)  # code


async def run():  # code
    \'\'\'Async function docstring.\'\'\'
    return [1,  # code
            # a comment inside an expression

            2]  # code
'''


@pytest.fixture
def codelines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import codelines

    return codelines


def test_counts_code_lines_only(codelines):
    assert codelines.code_lines(MODULE) == MODULE.count("code") == 10


def test_a_docstring_alone_is_not_code(codelines):
    assert codelines.code_lines('"""Only a docstring."""\n') == 0
    assert codelines.code_lines('"""Not a docstring."""\nx = 1\n"""Nor this."""\n') == 2


def test_prints_each_file_and_the_total(codelines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("# a comment\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    (tmp_path / "c.py").write_text("y = 2\n")
    assert codelines.main([str(tmp_path / "pkg"), str(tmp_path / "c.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    10  %s" % (tmp_path / "pkg" / "a.py"),
        "     1  %s" % (tmp_path / "pkg" / "b.py"),
        "     1  %s" % (tmp_path / "c.py"),
        "    12  total",
    ]
