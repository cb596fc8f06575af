"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := SELECT [DISTINCT] select_list FROM from_list [WHERE condition]
    select_list := '*' | select_item (',' select_item)*
    select_item := column [AS identifier]
    from_list   := table_ref (',' table_ref)*
    table_ref   := table_factor (DIVIDE BY table_factor ON condition)*
    table_factor:= identifier [AS identifier]
                 | '(' statement ')' [AS] identifier
    condition   := or_term ;  or_term := and_term (OR and_term)*
    and_term    := not_term (AND not_term)*
    not_term    := NOT not_term | primary
    primary     := EXISTS '(' statement ')'
                 | '(' condition ')'
                 | operand op operand
    operand     := column | number | string
    column      := identifier ['.' identifier]

``DIVIDE BY`` is the production rule the paper adds to the SQL standard's
``<table reference>`` (Section 4).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SQLSyntaxError
from repro.sql.ast import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Condition,
    DivideTable,
    ExistsCondition,
    Literal,
    NotCondition,
    Operand,
    SelectItem,
    SelectStatement,
    SubqueryTable,
    TableName,
    TableReference,
)
from repro.sql.lexer import Token, TokenType, tokenize

__all__ = ["parse"]


def parse(text: str) -> SelectStatement:
    """Parse one SELECT statement."""
    parser = _Parser(tokenize(text))
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self.current
        self._position += 1
        return token

    def check_keyword(self, word: str) -> bool:
        """True if the current token is ``word``, an upper-case keyword
        (the lexer stores keywords upper-cased)."""
        token = self._tokens[self._position]
        return token.value == word and token.type is TokenType.KEYWORD

    def accept_keyword(self, word: str) -> bool:
        if self.check_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SQLSyntaxError(f"expected {word}, found {self.current.value!r}", self.current.position)

    def expect(self, token_type: TokenType) -> Token:
        if self.current.type is not token_type:
            raise SQLSyntaxError(
                f"expected {token_type.name}, found {self.current.value!r}", self.current.position
            )
        return self.advance()

    def expect_end(self) -> None:
        if self.current.type is not TokenType.END:
            raise SQLSyntaxError(f"unexpected trailing input {self.current.value!r}", self.current.position)

    # ------------------------------------------------------------------
    # grammar rules
    # ------------------------------------------------------------------
    def parse_statement(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        select_star = False
        items: list[SelectItem] = []
        if self.current.type is TokenType.STAR:
            self.advance()
            select_star = True
        else:
            items.append(self.parse_select_item())
            while self.current.type is TokenType.COMMA:
                self.advance()
                items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        from_items = [self.parse_table_reference()]
        while self.current.type is TokenType.COMMA:
            self.advance()
            from_items.append(self.parse_table_reference())
        where: Optional[Condition] = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        return SelectStatement(
            select_items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            distinct=distinct,
            select_star=select_star,
        )

    def parse_select_item(self) -> SelectItem:
        column = self.parse_column()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENTIFIER).value
        return SelectItem(column=column, alias=alias)

    def parse_table_reference(self) -> TableReference:
        reference: TableReference = self.parse_table_factor()
        while self.check_keyword("DIVIDE"):
            self.advance()
            self.expect_keyword("BY")
            divisor = self.parse_table_factor()
            self.expect_keyword("ON")
            condition = self.parse_condition()
            reference = DivideTable(dividend=reference, divisor=divisor, condition=condition)
        return reference

    def parse_table_factor(self) -> TableReference:
        if self.current.type is TokenType.LPAREN:
            self.advance()
            query = self.parse_statement()
            self.expect(TokenType.RPAREN)
            self.accept_keyword("AS")
            alias = self.expect(TokenType.IDENTIFIER).value
            return SubqueryTable(query=query, alias=alias)
        name = self.expect(TokenType.IDENTIFIER).value
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect(TokenType.IDENTIFIER).value
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableName(name=name, alias=alias)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------
    def parse_condition(self) -> Condition:
        return self.parse_or()

    def parse_or(self) -> Condition:
        operands = [self.parse_and()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp(operator="OR", operands=tuple(operands))

    def parse_and(self) -> Condition:
        operands = [self.parse_not()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp(operator="AND", operands=tuple(operands))

    def parse_not(self) -> Condition:
        if self.accept_keyword("NOT"):
            return NotCondition(operand=self.parse_not())
        return self.parse_primary_condition()

    def parse_primary_condition(self) -> Condition:
        if self.check_keyword("EXISTS"):
            self.advance()
            self.expect(TokenType.LPAREN)
            query = self.parse_statement()
            self.expect(TokenType.RPAREN)
            return ExistsCondition(subquery=query)
        if self.current.type is TokenType.LPAREN:
            # Could be a parenthesised condition; parse and return it.
            self.advance()
            condition = self.parse_condition()
            self.expect(TokenType.RPAREN)
            return condition
        left = self.parse_operand()
        operator_token = self.expect(TokenType.OPERATOR)
        right = self.parse_operand()
        operator = {"<>": "!=", "!=": "!="}.get(operator_token.value, operator_token.value)
        return Comparison(left=left, operator=operator, right=right)

    def parse_operand(self) -> Operand:
        if self.current.type is TokenType.NUMBER:
            token = self.advance()
            try:
                value = float(token.value) if "." in token.value else int(token.value)
            except ValueError:  # "1.2.3", or a digit int() does not read ("²")
                raise SQLSyntaxError(f"malformed number {token.value!r}", token.position) from None
            return Literal(value=value)
        if self.current.type is TokenType.STRING:
            return Literal(value=self.advance().value)
        return self.parse_column()

    def parse_column(self) -> ColumnRef:
        first = self.expect(TokenType.IDENTIFIER).value
        if self.current.type is TokenType.DOT:
            self.advance()
            second = self.expect(TokenType.IDENTIFIER).value
            return ColumnRef(name=second, qualifier=first)
        return ColumnRef(name=first)
