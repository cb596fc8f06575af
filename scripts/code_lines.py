"""Count the code lines of ``src/`` and ``scripts/``.

A code line is a line of a ``.py`` file that holds at least one token of
code: blank lines, comment-only lines and docstrings do not count, and a
statement spread over several lines counts each of them.  A docstring is
the string literal that opens a module, class or function body.

Run from the repository root, with no options::

    python scripts/code_lines.py

It prints one line per directory and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRECTORIES = ("src", "scripts")

#: Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, (first.end_lineno or first.lineno) + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory: Path) -> int:
    """The code lines of every ``.py`` file under ``directory``."""
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in directory.rglob("*.py"))


def main() -> int:
    counts = {name: count(ROOT / name) for name in DIRECTORIES}
    for name, lines in counts.items():
        print(f"{name + '/':<9}{lines:>7}")
    print(f"{'total':<9}{sum(counts.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
