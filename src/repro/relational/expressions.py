"""Scalar and boolean expression trees over value tuples.

These expressions form the relational engine's predicate language: column
references, literals, comparisons, boolean connectives, and the SQL string
operations (``LIKE``, ``CONTAINS``) that the paper's *Relational Text
Processing* method relies on ("SQL provides some, though limited, ability
to do string processing").

Comparisons use SQL three-valued logic: any comparison involving NULL
evaluates to ``None`` (unknown), and filters keep only rows where the
predicate is strictly ``True``.

One evaluation path, :meth:`Expression.bind`: names resolve to positions
once per schema; bind once per operator, build a ``Row`` only for
survivors.  An unknown or ambiguous name raises its ``SchemaError`` only
when a tuple reaches it, exactly where a by-name lookup would.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import (
    Any, Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import ExpressionError, SchemaError, TypeMismatchError
from repro.relational.row import Row
from repro.relational.schema import Schema

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Like",
    "Contains",
    "InList",
    "conjuncts",
    "conjoin",
    "satisfying",
]

#: A bound expression: value tuple -> value (``None`` is SQL unknown).
Bound = Callable[[Tuple[Any, ...]], Any]


class Expression:
    """Base class for all expressions.

    Subclasses implement :meth:`bind`: a function of a value tuple under
    one schema, the one evaluation path.
    """

    def bind(self, schema: Schema) -> Bound:
        raise NotImplementedError

    def evaluate(self, row: Row) -> Any:
        """The value on one row; loops bind once and call the result."""
        return self.bind(row.schema)(row.values)

    def referenced_columns(self) -> FrozenSet[str]:
        """The column names read: the union over the operand expressions."""
        refs: FrozenSet[str] = frozenset()
        for field in fields(self):
            value = getattr(self, field.name)
            for operand in value if isinstance(value, tuple) else (value,):
                if isinstance(operand, Expression):
                    refs |= operand.referenced_columns()
        return refs

    # Boolean combinators for fluent predicate construction.
    def __and__(self, other: "Expression") -> "And":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


def satisfying(predicate: Expression, rows: Iterable[Row]) -> Iterator[Row]:
    """The rows on which ``predicate`` is strictly ``True``, in order,
    bound once per run of rows sharing a schema object."""
    schema = test = None
    for row in rows:
        if row.schema is not schema:
            schema, test = row.schema, predicate.bind(row.schema)
        if test(row.values) is True:
            yield row


def _position(expression: Expression, schema: Schema) -> Optional[int]:
    """The position a resolvable :class:`ColumnRef` reads, else ``None``."""
    resolves = isinstance(expression, ColumnRef) and schema.has_column(expression.name)
    return schema.index_of(expression.name) if resolves else None


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a named column."""

    name: str

    def bind(self, schema: Schema) -> Bound:
        try:
            return itemgetter(schema.index_of(self.name))
        except SchemaError:  # raised (afresh) only when a tuple reaches it
            return lambda values: values[schema.index_of(self.name)]

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def bind(self, schema: Schema) -> Bound:
        value = self.value
        return lambda values: value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_COMPARATORS: dict = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison: ``left <op> right`` with SQL NULL semantics
    (column vs column or literal binds to direct tuple indexing)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def bind(self, schema: Schema) -> Bound:
        compare, op = _COMPARATORS[self.op], self.op
        left_of, right_of = self.left.bind(schema), self.right.bind(schema)
        at, right_at = _position(self.left, schema), _position(self.right, schema)
        literal = isinstance(self.right, Literal)
        constant = self.right.value if literal else None
        direct = at is not None and (literal or right_at is not None)

        def test(values: Tuple[Any, ...]) -> Optional[bool]:
            if direct:
                left = values[at]
                right = constant if right_at is None else values[right_at]
            else:
                left, right = left_of(values), right_of(values)
            if left is None or right is None:
                return None
            try:
                return compare(left, right)
            except TypeError as exc:
                raise TypeMismatchError(f"cannot compare {left!r} {op} {right!r}") from exc

        return test

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class _Connective(Expression):
    """AND/OR with three-valued logic: the first operand equal to
    ``_decisive`` decides; otherwise any unknown makes the result unknown."""

    def __post_init__(self) -> None:
        if not self.operands:
            raise ExpressionError(f"{type(self).__name__} requires at least one operand")

    def bind(self, schema: Schema) -> Bound:
        tests = [operand.bind(schema) for operand in self.operands]
        decisive = self._decisive

        def test(values: Tuple[Any, ...]) -> Optional[bool]:
            saw_unknown = False
            for operand in tests:
                value = operand(values)
                if value is decisive:
                    return decisive
                if value is None:
                    saw_unknown = True
            return None if saw_unknown else not decisive

        return test

    def __repr__(self) -> str:
        joiner = f" {type(self).__name__.lower()} "
        return "(" + joiner.join(repr(op) for op in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class And(_Connective):
    """Conjunction with three-valued logic."""

    operands: Tuple[Expression, ...]
    _decisive = False


@dataclass(frozen=True, repr=False)
class Or(_Connective):
    """Disjunction with three-valued logic."""

    operands: Tuple[Expression, ...]
    _decisive = True


@dataclass(frozen=True)
class Not(Expression):
    """Negation with three-valued logic (NOT unknown = unknown)."""

    operand: Expression

    def bind(self, schema: Schema) -> Bound:
        operand = self.operand.bind(schema)
        return lambda values: None if (value := operand(values)) is None else not value

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


@dataclass(frozen=True)
class Like(Expression):
    """SQL ``LIKE``: string pattern matching with ``%`` and ``_``."""

    operand: Expression
    pattern: str

    def bind(self, schema: Schema) -> Bound:
        operand, match = self.operand.bind(schema), _like_to_regex(self.pattern).match

        def test(values: Tuple[Any, ...]) -> Optional[bool]:
            value = operand(values)
            if value is None:
                return None
            if not isinstance(value, str):
                raise TypeMismatchError(f"LIKE applied to non-string {value!r}")
            return match(value) is not None

        return test

    def __repr__(self) -> str:
        return f"({self.operand!r} like {self.pattern!r})"


def _word_search(needle: str) -> Callable[[str], Any]:
    """``search`` of a case-folded ``needle`` as a whole token."""
    return re.compile(
        r"(?<![0-9a-z])" + re.escape(needle.lower()) + r"(?![0-9a-z])"
    ).search


@dataclass(frozen=True)
class Contains(Expression):
    """Case-insensitive word/substring containment.

    This models the SQL string processing the paper's RTP method uses to
    check a join value against a fetched document field.  With
    ``word_boundary=True`` (the default) the needle must appear as a whole
    token, which matches the text system's word-level semantics (a literal
    needle's pattern compiled once per bind, a column's per value).
    """

    haystack: Expression
    needle: Expression
    word_boundary: bool = True

    def bind(self, schema: Schema) -> Bound:
        haystack_of, needle_of = self.haystack.bind(schema), self.needle.bind(schema)
        word_boundary = self.word_boundary
        constant = self.needle.value if isinstance(self.needle, Literal) else None
        search = _word_search(constant) if isinstance(constant, str) else None

        def test(values: Tuple[Any, ...]) -> Optional[bool]:
            haystack, needle = haystack_of(values), needle_of(values)
            if haystack is None or needle is None:
                return None
            if not isinstance(haystack, str) or not isinstance(needle, str):
                raise TypeMismatchError(
                    f"CONTAINS applied to non-strings {haystack!r}, {needle!r}"
                )
            if not word_boundary:
                return needle.lower() in haystack.lower()
            return (search or _word_search(needle))(haystack.lower()) is not None

        return test

    def __repr__(self) -> str:
        return f"contains({self.haystack!r}, {self.needle!r})"


@dataclass(frozen=True)
class InList(Expression):
    """SQL ``IN (v1, v2, ...)`` over a literal value list."""

    operand: Expression
    values: Tuple[Any, ...]

    def bind(self, schema: Schema) -> Bound:
        operand, options = self.operand.bind(schema), self.values
        return lambda values: (
            None if (value := operand(values)) is None else value in options
        )

    def __repr__(self) -> str:
        return f"({self.operand!r} in {list(self.values)!r})"


def conjuncts(expression: Optional[Expression]) -> List[Expression]:
    """Flatten an expression into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, And):
        out: List[Expression] = []
        for operand in expression.operands:
            out.extend(conjuncts(operand))
        return out
    return [expression]


def conjoin(expressions: Sequence[Expression]) -> Optional[Expression]:
    """Combine expressions with AND; ``None`` for an empty list."""
    flat: List[Expression] = []
    for expression in expressions:
        flat.extend(conjuncts(expression))
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))
