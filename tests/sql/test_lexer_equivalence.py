"""The pattern-scan lexer against the character loop it replaced.

``reference_tokenize`` is the lexer as it was written first: one character
at a time, with ``str.isspace`` / ``str.isdigit`` / ``str.isalpha`` /
``str.isalnum`` deciding every token.  The regular-expression classes are
not those predicates everywhere (``\\d`` is ``str.isdecimal``, so "²" is a
digit but no ``\\d``; ``[^\\W\\d]`` admits "½", which is no letter), so
every text here must give the same tokens -- types, values, positions --
or the same error at the same position.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SQLSyntaxError
from repro.experiments import queries
from repro.sql import tokenize
from repro.sql.lexer import KEYWORDS, TokenType

CORPUS_FILE = Path(__file__).parents[1] / "algebra" / "fingerprint_corpus.json"
CORPUS = json.loads(CORPUS_FILE.read_text(encoding="utf-8"))


def reference_tokenize(text):
    """The character-loop lexer, kept as the reference."""
    tokens = []
    index = 0
    length = len(text)
    punctuation = {",": "COMMA", ".": "DOT", "(": "LPAREN", ")": "RPAREN", "*": "STAR"}
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in punctuation:
            tokens.append((TokenType[punctuation[char]], char, index))
            index += 1
            continue
        if char == "'":
            end = text.find("'", index + 1)
            if end == -1:
                raise SQLSyntaxError("unterminated string literal", index)
            tokens.append((TokenType.STRING, text[index + 1 : end], index))
            index = end + 1
            continue
        operator = next(
            (op for op in ("<=", ">=", "<>", "!=", "=", "<", ">") if text.startswith(op, index)),
            None,
        )
        if operator:
            tokens.append((TokenType.OPERATOR, operator, index))
            index += len(operator)
            continue
        if char.isdigit():
            end = index
            while end < length and (text[end].isdigit() or text[end] == "."):
                end += 1
            tokens.append((TokenType.NUMBER, text[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] in "_#"):
                end += 1
            word = text[index:end]
            if word.upper() in KEYWORDS:
                tokens.append((TokenType.KEYWORD, word.upper(), index))
            else:
                tokens.append((TokenType.IDENTIFIER, word, index))
            index = end
            continue
        raise SQLSyntaxError(f"unexpected character {char!r}", index)
    tokens.append((TokenType.END, "", length))
    return tokens


def outcome(lexer, text):
    """Tokens as plain tuples, or the error's type, message and position."""
    try:
        return [tuple(token) for token in lexer(text)]
    except SQLSyntaxError as error:
        return (type(error), str(error), error.position)


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


#: Characters where a pattern class and a ``str`` predicate part ways, or
#: that the grammar treats specially.
SPECIAL = "é²٣½\u00a0\u2028#'\"_.,()*=<>!;ſß一Ⅻ①𝟙\t\n"
ALPHABET = st.sampled_from(list("abcSELECTfromwhere019 ") + list(SPECIAL))
FRAGMENTS = st.sampled_from(
    ["SELECT", "from", "WHERE", " ", "1.2.3", "1²", "² ", "½", "٣٣", "é", "s#", "p_no", "'x y'",
     "'", "<=", "<>", "!=", "!", ">=", "= ", "(", ")", ".", "a.b", "٣.5", "7.", "_", "#a"]
)  # fmt: skip


@settings(max_examples=400, deadline=None)
@given(st.text(ALPHABET, max_size=40) | st.lists(FRAGMENTS, max_size=12).map("".join) | st.text())
@example("a = ²")  # "²" is str.isdigit but not \d: a number
@example("a = 1²")  # ... and continues one
@example("½")  # [^\W\d] but not str.isalpha: no token at all
@example("x½ Ⅻ")  # inside a word it is alphanumeric, at a start it is not
@example("a = 'b'")
def test_the_pattern_lexer_matches_the_character_loop(text):
    assert_same(text)


@pytest.mark.parametrize("group", sorted(set(CORPUS) - {"experiments", "fluent"}))
def test_every_recorded_bench_text_lexes_the_same(group):
    for text in CORPUS[group]:
        assert_same(text)


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q2_NOT_EXISTS"])
def test_the_paper_queries_lex_the_same(name):
    assert_same(getattr(queries, name))


def test_the_classes_that_differ_are_exercised():
    """The examples above reach both places a plain pattern would differ."""
    assert [token.type for token in tokenize("² 1²")][:2] == [TokenType.NUMBER] * 2
    assert tokenize("1²")[0].value == "1²"
    with pytest.raises(SQLSyntaxError, match="unexpected character '½'"):
        tokenize("½")
