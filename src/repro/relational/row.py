"""Rows: immutable tuples bound to a schema.

A :class:`Row` pairs a value tuple with the :class:`~repro.relational.schema.Schema`
that names its positions.  ``Row(schema, values)`` is cheap (``__slots__``,
the schema shared by reference) because join operators materialize large
numbers of them, each against the operator's one ``output_schema``.
Predicates never need one: bind once per operator (``Expression.bind``),
test value tuples, build a ``Row`` only for survivors.
:meth:`Row.concat` and :meth:`Row.project` are not: each call builds and
validates a fresh ``Schema`` — conveniences for one-off rows, not loops.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.schema import Schema

__all__ = ["Row"]


class Row:
    """An immutable row of values described by a schema."""

    __slots__ = ("schema", "values")

    def __init__(self, schema: Schema, values: Sequence[Any]) -> None:
        if len(values) != len(schema):
            raise SchemaError(
                f"row has {len(values)} values for schema of {len(schema)} columns"
            )
        self.schema = schema
        self.values: Tuple[Any, ...] = tuple(values)

    def __getitem__(self, name: str) -> Any:
        """Value of the named column (qualified or unambiguous bare name)."""
        return self.values[self.schema.index_of(name)]

    def get(self, name: str, default: Any = None) -> Any:
        """Like ``__getitem__`` but returns ``default`` for unknown names."""
        try:
            return self[name]
        except SchemaError:
            return default

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.values == other.values and self.schema == other.schema

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{column.name}={value!r}"
            for column, value in zip(self.schema.columns, self.values)
        )
        return f"Row({pairs})"

    def to_dict(self) -> Dict[str, Any]:
        """A ``{column name: value}`` dict (qualified names preserved)."""
        return {
            column.name: value
            for column, value in zip(self.schema.columns, self.values)
        }

    def project(self, names: Sequence[str]) -> "Row":
        """A new row with only the named columns, in the given order.

        Convenience, one schema per call; operators build rows against
        their ``output_schema``.
        """
        schema = self.schema.project(names)
        return Row(schema, tuple(self[name] for name in names))

    def concat(self, other: "Row") -> "Row":
        """Concatenate two rows (join output).

        Convenience, one schema per call; operators build rows against
        their ``output_schema``.
        """
        return Row(self.schema.concat(other.schema), self.values + other.values)
