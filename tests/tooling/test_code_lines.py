"""Unit tests for ``scripts/code_lines.py``: what counts as a code line."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load()

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code

# a comment line


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring."""
        text = """a string that
        is no docstring"""
        return (
            text
        )
'''


def test_blank_lines_comments_and_docstrings_do_not_count():
    # import, class, def, the two-line string, return ( / text / )
    assert code_lines.code_lines(SOURCE) == 8


def test_an_empty_module_has_no_code_lines():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_both_directories_are_counted(capsys):
    assert code_lines.main() == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["src/", "scripts/", "total"]
    src, scripts, total = (int(line.split()[1]) for line in printed)
    assert src > 0 and scripts > 0 and total == src + scripts
