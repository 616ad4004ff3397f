"""The by-name expression evaluator, kept as the test oracle.

These are the bodies of every expression class's ``evaluate(row)`` as
they stood before expressions gained one evaluation path
(``Expression.bind``), moved here verbatim.  The only edit is the
recursion: ``self.left.evaluate(row)`` reads
``reference_evaluate(self.left, row)``.  Every column is looked up by
name on every row (``row[name]``).  The differential tests
in ``test_expressions.py`` require the bound path to agree with them on
every input: same value, or the same exception class.
"""

from typing import Any, Optional

from repro.core.textmatch import TextMatch, value_matches_field
from repro.errors import TypeMismatchError
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
)
from repro.relational.row import Row

_COMPARATORS: dict = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _column_ref(self: ColumnRef, row: Row) -> Any:
    return row[self.name]


def _literal(self: Literal, row: Row) -> Any:
    return self.value


def _comparison(self: Comparison, row: Row) -> Optional[bool]:
    left = reference_evaluate(self.left, row)
    right = reference_evaluate(self.right, row)
    if left is None or right is None:
        return None
    try:
        return _COMPARATORS[self.op](left, right)
    except TypeError as exc:
        raise TypeMismatchError(
            f"cannot compare {left!r} {self.op} {right!r}"
        ) from exc


def _and(self: And, row: Row) -> Optional[bool]:
    saw_unknown = False
    for operand in self.operands:
        value = reference_evaluate(operand, row)
        if value is False:
            return False
        if value is None:
            saw_unknown = True
    return None if saw_unknown else True


def _or(self: Or, row: Row) -> Optional[bool]:
    saw_unknown = False
    for operand in self.operands:
        value = reference_evaluate(operand, row)
        if value is True:
            return True
        if value is None:
            saw_unknown = True
    return None if saw_unknown else False


def _not(self: Not, row: Row) -> Optional[bool]:
    value = reference_evaluate(self.operand, row)
    if value is None:
        return None
    return not value


def _text_match(self: TextMatch, row: Row) -> Optional[bool]:
    value = reference_evaluate(self.value, row)
    field_text = reference_evaluate(self.field_text, row)
    if value is None or field_text is None:
        return None
    if not isinstance(field_text, str):
        raise TypeMismatchError(
            f"TextMatch needs a text field, got {field_text!r}"
        )
    return value_matches_field(str(value), field_text)


_EVALUATORS = {
    ColumnRef: _column_ref,
    Literal: _literal,
    Comparison: _comparison,
    And: _and,
    Or: _or,
    Not: _not,
    TextMatch: _text_match,
}


def reference_evaluate(expression, row: Row) -> Any:
    """The by-name value of ``expression`` on ``row``."""
    return _EVALUATORS[type(expression)](expression, row)

