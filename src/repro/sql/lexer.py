"""Tokenizer for the SQL subset understood by the frontend.

The subset covers the queries of Section 4 of the paper: SELECT/FROM/WHERE,
table subqueries, ``AS`` aliases, ``NOT EXISTS`` subqueries, comparison
predicates combined with AND/OR/NOT, and the paper's proposed
``DIVIDE BY … ON …`` table reference.

:func:`tokenize` scans the text with one compiled pattern, one match per
token, and returns :class:`Token` tuples; its tokens are those of the
character-by-character reading the grammar is stated in (``str.isspace``,
``str.isdigit``, ``str.isalpha``, ``str.isalnum``), non-ASCII text included.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.errors import SQLSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(Enum):
    """Lexical token categories."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    COMMA = auto()
    DOT = auto()
    LPAREN = auto()
    RPAREN = auto()
    STAR = auto()
    END = auto()


#: Reserved words (case-insensitive).  ``DIVIDE`` and ``BY`` implement the
#: paper's syntax extension.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "AS",
        "AND",
        "OR",
        "NOT",
        "EXISTS",
        "DIVIDE",
        "BY",
        "ON",
    }
)

#: One token per match, after any whitespace (``\s`` is ``str.isspace``).
#: Each group is named after its token type; a ``WORD`` is a keyword or an
#: identifier.  ``\w`` is ``str.isalnum`` or ``_``, but ``\d`` is only
#: ``str.isdecimal``, so :func:`tokenize` finishes the two cases where the
#: classes differ from the ``str`` predicates the grammar is stated in: a
#: number runs over every ``str.isdigit`` character ("1²"), and a ``WORD``
#: starting on a numeric non-letter ("²", "½") is a number or no token.
_TOKEN = re.compile(
    r"\s*(?:(?P<OPERATOR><=|>=|<>|!=|[=<>])|(?P<COMMA>,)|(?P<DOT>\.)|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))|(?P<STAR>\*)|(?P<STRING>'[^']*')|(?P<NUMBER>\d[\d.]*)"
    r"|(?P<WORD>[^\W\d][\w#]*))?"
)

_TYPES = {token_type.name: token_type for token_type in TokenType}


class Token(NamedTuple):
    """One lexical token with its position in the input text."""

    type: TokenType
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`SQLSyntaxError` on unknown characters."""
    tokens: list[Token] = []
    match = _TOKEN.match
    length = len(text)
    index = 0
    while True:
        found = match(text, index)
        kind = found.lastgroup
        if kind is None:
            index = found.end()
            if index == length:
                break
            if text[index] == "'":
                raise SQLSyntaxError("unterminated string literal", index)
            raise SQLSyntaxError(f"unexpected character {text[index]!r}", index)
        start, index = found.span(kind)
        value = text[start:index]
        if kind == "WORD":
            first = value[0]
            if first > "\x7f" and not first.isalpha():
                if not first.isdigit():
                    raise SQLSyntaxError(f"unexpected character {first!r}", start)
                kind, index = "NUMBER", start + 1  # "²": a digit, though no \d
            elif value.upper() in KEYWORDS:
                kind, value = "KEYWORD", value.upper()
            else:
                kind = "IDENTIFIER"
        elif kind == "STRING":
            value = value[1:-1]
        if kind == "NUMBER":
            while index < length and (text[index].isdigit() or text[index] == "."):
                index += 1
            value = text[start:index]
        tokens.append(Token(_TYPES[kind], value, start))
    tokens.append(Token(TokenType.END, "", length))
    return tokens
