"""Expression trees for the relational engine.

Expressions evaluate against a row tuple plus a column layout (name →
position).  :func:`col` and :func:`lit` are the public constructors;
comparisons and boolean combinators are built with Python operators:

>>> predicate = (col("age") >= lit(18)) & (col("country") == lit("us"))

A row operator evaluates through :meth:`Expression.bind`: the layout
is resolved once per query into a function of one row, equal to
:meth:`Expression.evaluate` on every row, so no row looks a column up
by name or an operator up by symbol.

Every node also evaluates batch-at-a-time: :meth:`Expression.
evaluate_batch` takes named column vectors and returns one output value
per position, element-wise identical to looping :meth:`Expression.
evaluate` over the rows.  The vectorized operators in
:mod:`repro.engines.dbms.vector_plans` use this to evaluate a predicate
once per batch instead of recursing through the tree once per row.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping, Sequence
from itertools import repeat
from typing import Any

from repro.core.errors import EngineError

Layout = dict[str, int]
Row = tuple
#: Named column vectors, as the batch evaluator consumes them: any
#: mapping, so a batch can gather a column when an expression asks for it.
Columns = Mapping[str, Sequence[Any]]


class Expression(ABC):
    """Base class of all expression nodes."""

    @abstractmethod
    def evaluate(self, row: Row, layout: Layout) -> Any:
        """Evaluate against one row."""

    @abstractmethod
    def bind(self, layout: Layout) -> Callable[[Row], Any]:
        """:meth:`evaluate` with ``layout`` resolved: a function of one row.

        ``bind(layout)(row)`` equals ``evaluate(row, layout)`` on every
        row, an exception included: column positions and operators are
        looked up here, once, and an unknown column still raises
        :class:`EngineError` only when a row is evaluated.
        """

    @abstractmethod
    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        """Evaluate against ``count`` rows held as column vectors.

        Must be element-wise identical to calling :meth:`evaluate` on
        each row — the row path stays the correctness oracle.  May
        return an existing column vector unchanged (zero-copy), so
        callers must not mutate the result.
        """

    @abstractmethod
    def columns(self) -> frozenset[str]:
        """All column names this expression references."""

    # Comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "=", _wrap(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "!=", _wrap(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison(self, "<", _wrap(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison(self, "<=", _wrap(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(self, ">", _wrap(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(self, ">=", _wrap(other))

    # Boolean combinators -----------------------------------------------

    def __and__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("and", self, _wrap(other))

    def __or__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("or", self, _wrap(other))

    def __invert__(self) -> "NotOp":
        return NotOp(self)

    # Arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, "+", _wrap(other))

    def __sub__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, "-", _wrap(other))

    def __mul__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, "*", _wrap(other))

    def __truediv__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, "/", _wrap(other))

    def __hash__(self) -> int:  # __eq__ is overloaded, keep hashable
        return id(self)


def _wrap(value: object) -> "Expression":
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Column(Expression):
    """A reference to a column by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row: Row, layout: Layout) -> Any:
        try:
            return row[layout[self.name]]
        except KeyError:
            raise self._unknown(layout) from None

    def bind(self, layout: Layout) -> Callable[[Row], Any]:
        position = layout.get(self.name)
        if position is not None:
            return operator.itemgetter(position)

        def unknown(row: Row) -> Any:
            raise self._unknown(layout)

        return unknown

    def _unknown(self, layout: Layout) -> EngineError:
        return EngineError(
            f"unknown column {self.name!r}; available: {sorted(layout)}"
        )

    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        try:
            return columns[self.name]
        except KeyError:
            raise EngineError(
                f"unknown column {self.name!r}; available: {sorted(columns)}"
            ) from None

    def columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: Row, layout: Layout) -> Any:
        return self.value

    def bind(self, layout: Layout) -> Callable[[Row], Any]:
        value = self.value
        return lambda row: value

    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        return [self.value] * count

    def columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class _BinaryOp(Expression):
    """``left op right``, the operator looked up in ``_OPERATORS``."""

    _OPERATORS: dict[str, Callable[[Any, Any], Any]]
    _KIND: str

    def __init__(self, left: Expression, op: str, right: Expression) -> None:
        if op not in self._OPERATORS:
            raise EngineError(f"unknown {self._KIND} operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, row: Row, layout: Layout) -> Any:
        return self._OPERATORS[self.op](
            self.left.evaluate(row, layout), self.right.evaluate(row, layout)
        )

    def bind(self, layout: Layout) -> Callable[[Row], Any]:
        apply = self._OPERATORS[self.op]
        left = self.left.bind(layout)
        if isinstance(self.right, Literal):
            constant = self.right.value
            return lambda row: apply(left(row), constant)
        right = self.right.bind(layout)
        return lambda row: apply(left(row), right(row))

    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        apply = self._OPERATORS[self.op]
        # Constant operands skip the broadcast list a Literal would build.
        if isinstance(self.right, Literal):
            return list(
                map(
                    apply,
                    self.left.evaluate_batch(columns, count),
                    repeat(self.right.value),
                )
            )
        if isinstance(self.left, Literal):
            return list(
                map(
                    apply,
                    repeat(self.left.value),
                    self.right.evaluate_batch(columns, count),
                )
            )
        return list(
            map(
                apply,
                self.left.evaluate_batch(columns, count),
                self.right.evaluate_batch(columns, count),
            )
        )

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(_BinaryOp):
    """A binary comparison between two sub-expressions."""

    _OPERATORS = _COMPARATORS
    _KIND = "comparison"

    @property
    def is_equality_on_column(self) -> bool:
        """True for ``col = literal`` patterns, which index scans can serve."""
        return (
            self.op == "="
            and isinstance(self.left, Column)
            and isinstance(self.right, Literal)
        )


class BooleanOp(Expression):
    """Logical AND / OR over two sub-expressions."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in ("and", "or"):
            raise EngineError(f"unknown boolean operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Row, layout: Layout) -> bool:
        if self.op == "and":
            return bool(self.left.evaluate(row, layout)) and bool(
                self.right.evaluate(row, layout)
            )
        return bool(self.left.evaluate(row, layout)) or bool(
            self.right.evaluate(row, layout)
        )

    def bind(self, layout: Layout) -> Callable[[Row], bool]:
        left = self.left.bind(layout)
        right = self.right.bind(layout)
        if self.op == "and":
            return lambda row: bool(left(row)) and bool(right(row))
        return lambda row: bool(left(row)) or bool(right(row))

    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        left = self.left.evaluate_batch(columns, count)
        right = self.right.evaluate_batch(columns, count)
        if self.op == "and":
            return [
                bool(left_item) and bool(right_item)
                for left_item, right_item in zip(left, right)
            ]
        return [
            bool(left_item) or bool(right_item)
            for left_item, right_item in zip(left, right)
        ]

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class NotOp(Expression):
    """Logical negation."""

    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    def evaluate(self, row: Row, layout: Layout) -> bool:
        return not bool(self.inner.evaluate(row, layout))

    def bind(self, layout: Layout) -> Callable[[Row], bool]:
        inner = self.inner.bind(layout)
        return lambda row: not bool(inner(row))

    def evaluate_batch(self, columns: Columns, count: int) -> Sequence[Any]:
        return [
            not bool(item)
            for item in self.inner.evaluate_batch(columns, count)
        ]

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"(not {self.inner!r})"


class Arithmetic(_BinaryOp):
    """Binary arithmetic between two sub-expressions."""

    _OPERATORS = _ARITHMETIC
    _KIND = "arithmetic"


def col(name: str) -> Column:
    """Reference a column by name."""
    return Column(name)


def lit(value: Any) -> Literal:
    """Wrap a constant value."""
    return Literal(value)


def split_conjuncts(expression: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts.

    Used by the planner for predicate pushdown: each conjunct can be
    pushed independently to whichever input provides its columns.
    """
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[Expression]) -> Expression | None:
    """Re-assemble conjuncts into a single AND expression (or None)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BooleanOp("and", result, conjunct)
    return result
