"""A small SQL front-end for the relational engine.

Supports the SELECT dialect the paper's relational workloads need
(select / project / join / filter / group-by / aggregate / order / limit):

    SELECT category, SUM(quantity) AS total, COUNT(*) AS n
    FROM orders
    JOIN products ON orders.product_id = products.product_id
    WHERE quantity >= 2 AND day < 180
    GROUP BY category
    ORDER BY total DESC
    LIMIT 10

Grammar (informal)::

    query   := SELECT items FROM name join* [WHERE pred] [GROUP BY cols]
               [ORDER BY ord (',' ord)*] [LIMIT n]
    items   := '*' | item (',' item)*
    item    := expr [AS name] | AGG '(' (col | '*') ')' [AS name]
    join    := JOIN name ON qual '=' qual
    pred    := conj (OR conj)*
    conj    := cmp (AND cmp)*
    cmp     := ['NOT'] expr op expr | '(' pred ')'
    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := number | string | qualified-or-bare column | '(' expr ')'

The parser produces a :class:`~repro.engines.dbms.planner.Query`, so SQL
text goes through exactly the same planner and physical operators as the
fluent builder.  Qualified names (``orders.product_id``) drop their
table prefix — the engine's join schema disambiguates duplicates with an
``_r`` suffix instead.
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.errors import EngineError
from repro.engines.dbms.expressions import (
    Arithmetic,
    BooleanOp,
    Comparison,
    Expression,
    Literal,
    NotOp,
    col,
    lit,
)
from repro.engines.dbms.planner import JoinSpec, Query
from repro.engines.dbms.plans import Aggregate

_TOKEN_PATTERN = re.compile(
    r"""
    \s*(
        '(?:[^']|'')*'            # string literal
      | \d+\.\d+ | \.\d+ | \d+    # numbers
      | [A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)?  # names
      | <> | != | <= | >= | [=<>(),*+\-/]
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "join",
    "on", "as", "and", "or", "not", "asc", "desc",
}

_AGGREGATES = {"count", "sum", "min", "max", "avg"}


class SqlSyntaxError(EngineError):
    """The SQL text could not be parsed."""


class _Tokens:
    """A token cursor with keyword-aware helpers."""

    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        position = 0
        while position < len(text):
            match = _TOKEN_PATTERN.match(text, position)
            if match is None:
                remainder = text[position:].strip()
                if not remainder:
                    break
                raise SqlSyntaxError(
                    f"unexpected character at: {remainder[:20]!r}"
                )
            self.tokens.append(match.group(1))
            position = match.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of query")
        self.index += 1
        return token

    def accept_keyword(self, *keywords: str) -> bool:
        """Consume the next tokens if they match the keyword sequence."""
        saved = self.index
        for keyword in keywords:
            token = self.peek()
            if token is None or token.lower() != keyword:
                self.index = saved
                return False
            self.index += 1
        return True

    def expect_keyword(self, *keywords: str) -> None:
        if not self.accept_keyword(*keywords):
            raise SqlSyntaxError(
                f"expected {' '.join(keywords).upper()!r} near "
                f"{self.peek()!r}"
            )

    def accept(self, symbol: str) -> bool:
        if self.peek() == symbol:
            self.index += 1
            return True
        return False

    def expect(self, symbol: str) -> None:
        token = self.next()
        if token != symbol:
            raise SqlSyntaxError(f"expected {symbol!r}, got {token!r}")

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _bare_name(name: str) -> str:
    """Strip a table qualifier: orders.product_id → product_id."""
    return name.rsplit(".", 1)[-1]


def _is_name(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z_0-9.]*", token)) and (
        token.lower() not in _KEYWORDS
    )


class SqlParser:
    """Parses one SELECT statement into a logical :class:`Query`."""

    def __init__(self, text: str) -> None:
        self.tokens = _Tokens(text)

    def parse(self) -> Query:
        self.tokens.expect_keyword("select")
        items = self._parse_select_items()
        self.tokens.expect_keyword("from")
        table = self._parse_name()
        query = Query(table=table)

        while self.tokens.accept_keyword("join"):
            inner = self._parse_name()
            self.tokens.expect_keyword("on")
            left = _bare_name(self._parse_name())
            self.tokens.expect("=")
            right = _bare_name(self._parse_name())
            query.joins.append(JoinSpec(inner, left, right))

        if self.tokens.accept_keyword("where"):
            query.predicate = self._parse_predicate()

        if self.tokens.accept_keyword("group", "by"):
            query.group_by.append(_bare_name(self._parse_name()))
            while self.tokens.accept(","):
                query.group_by.append(_bare_name(self._parse_name()))

        if self.tokens.accept_keyword("order", "by"):
            query.order_by.append(self._parse_order_key())
            while self.tokens.accept(","):
                query.order_by.append(self._parse_order_key())

        if self.tokens.accept_keyword("limit"):
            token = self.tokens.next()
            try:
                query.limit = int(token)
            except ValueError:
                raise SqlSyntaxError(f"LIMIT expects an integer, got {token!r}")

        if not self.tokens.done():
            raise SqlSyntaxError(
                f"trailing tokens after query: {self.tokens.peek()!r}"
            )

        self._apply_select_items(query, items)
        return query

    def _parse_order_key(self) -> tuple[str, bool]:
        column = _bare_name(self._parse_name())
        if self.tokens.accept_keyword("desc"):
            return column, True
        self.tokens.accept_keyword("asc")
        return column, False

    # ------------------------------------------------------------------
    # SELECT list
    # ------------------------------------------------------------------

    def _parse_select_items(self) -> list[tuple[str, Any]]:
        """Each item is ('*', None), ('agg', Aggregate) or ('expr',
        (alias, Expression))."""
        items: list[tuple[str, Any]] = []
        if self.tokens.accept("*"):
            return [("*", None)]
        items.append(self._parse_select_item())
        while self.tokens.accept(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> tuple[str, Any]:
        token = self.tokens.peek()
        if token is not None and token.lower() in _AGGREGATES:
            saved = self.tokens.index
            function = self.tokens.next().lower()
            if self.tokens.accept("("):
                if self.tokens.accept("*"):
                    column = None
                else:
                    column = _bare_name(self._parse_name())
                self.tokens.expect(")")
                alias = self._parse_optional_alias() or (
                    function if column is None else f"{function}_{column}"
                )
                return ("agg", Aggregate(function, column, alias))
            self.tokens.index = saved  # a column that shadows an agg name
        expression = self._parse_expression()
        alias = self._parse_optional_alias()
        if alias is None:
            if hasattr(expression, "name"):
                alias = expression.name  # plain column reference
            else:
                alias = f"expr_{id(expression) % 1000}"
        return ("expr", (alias, expression))

    def _parse_optional_alias(self) -> str | None:
        if self.tokens.accept_keyword("as"):
            return _bare_name(self._parse_name())
        return None

    def _apply_select_items(
        self, query: Query, items: list[tuple[str, Any]]
    ) -> None:
        if items == [("*", None)]:
            return  # no projection: full schema
        aggregates = [item for kind, item in items if kind == "agg"]
        expressions = [item for kind, item in items if kind == "expr"]
        if aggregates:
            query.aggregates.extend(aggregates)
            # Plain columns next to aggregates must be grouping keys.
            for alias, expression in expressions:
                name = getattr(expression, "name", None)
                if name is None:
                    raise SqlSyntaxError(
                        "only plain columns may accompany aggregates"
                    )
                if name not in query.group_by:
                    raise SqlSyntaxError(
                        f"column {name!r} must appear in GROUP BY"
                    )
        else:
            query.projection.extend(expressions)

    # ------------------------------------------------------------------
    # Predicates and expressions
    # ------------------------------------------------------------------

    def _parse_predicate(self) -> Expression:
        left = self._parse_conjunction()
        while self.tokens.accept_keyword("or"):
            left = BooleanOp("or", left, self._parse_conjunction())
        return left

    def _parse_conjunction(self) -> Expression:
        left = self._parse_condition()
        while self.tokens.accept_keyword("and"):
            left = BooleanOp("and", left, self._parse_condition())
        return left

    def _parse_condition(self) -> Expression:
        if self.tokens.accept_keyword("not"):
            return NotOp(self._parse_condition())
        saved = self.tokens.index
        if self.tokens.accept("("):
            # Could be a parenthesised predicate or expression; try
            # predicate first.
            try:
                inner = self._parse_predicate()
                self.tokens.expect(")")
                return inner
            except SqlSyntaxError:
                self.tokens.index = saved
        left = self._parse_expression()
        operator = self.tokens.next()
        if operator == "<>":
            operator = "!="
        if operator not in ("=", "!=", "<", "<=", ">", ">="):
            raise SqlSyntaxError(f"expected a comparison, got {operator!r}")
        right = self._parse_expression()
        return Comparison(left, operator, right)

    def _parse_expression(self) -> Expression:
        left = self._parse_term()
        while True:
            if self.tokens.accept("+"):
                left = Arithmetic(left, "+", self._parse_term())
            elif self.tokens.accept("-"):
                left = Arithmetic(left, "-", self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            if self.tokens.accept("*"):
                left = Arithmetic(left, "*", self._parse_factor())
            elif self.tokens.accept("/"):
                left = Arithmetic(left, "/", self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self.tokens.peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of expression")
        if token == "-":
            # Unary minus: parse the operand and negate it.
            self.tokens.next()
            operand = self._parse_factor()
            if isinstance(operand, Literal):
                return lit(-operand.value)
            return Arithmetic(lit(0), "-", operand)
        if token == "(":
            self.tokens.next()
            inner = self._parse_expression()
            self.tokens.expect(")")
            return inner
        if token.startswith("'"):
            self.tokens.next()
            return lit(token[1:-1].replace("''", "'"))
        if re.fullmatch(r"\d+", token):
            self.tokens.next()
            return lit(int(token))
        if re.fullmatch(r"\d*\.\d+|\d+\.\d*", token):
            self.tokens.next()
            return lit(float(token))
        if _is_name(token):
            self.tokens.next()
            return col(_bare_name(token))
        raise SqlSyntaxError(f"unexpected token {token!r} in expression")

    def _parse_name(self) -> str:
        token = self.tokens.next()
        if not _is_name(token):
            raise SqlSyntaxError(f"expected a name, got {token!r}")
        return token


def parse_sql(text: str) -> Query:
    """Parse one SELECT statement into a logical query."""
    return SqlParser(text).parse()
