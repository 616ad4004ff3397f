"""In-memory heap tables.

A :class:`Table` stores rows as value tuples and exposes an iterator scan.
Values are type-checked (and coerced where safe) against the table schema
on insert, so every downstream operator can trust the data.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.expressions import Expression
from repro.relational.row import Row
from repro.relational.schema import Column, Schema
from repro.relational.types import coerce_value

__all__ = ["Table"]


class Table:
    """A named, schema-typed, in-memory relation.

    The table's columns are stored *unqualified*; :meth:`scan` yields rows
    under the qualified schema (``<table>.<column>``) so that joins over
    multiple tables never collide on column names.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        for column in schema:
            if column.qualifier is not None and column.qualifier != name:
                raise SchemaError(
                    f"column {column.name!r} is qualified with a different table"
                )
        self.name = name
        # Store bare column names internally; expose qualified on scan.
        self._schema = Schema(
            Column(column.bare_name, column.data_type) for column in schema
        )
        self._qualified_schema = self._schema.qualified(name)
        self._rows: List[Tuple[Any, ...]] = []

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The table's qualified schema (``table.column`` names)."""
        return self._qualified_schema

    @property
    def bare_schema(self) -> Schema:
        """The table's schema with unqualified column names."""
        return self._schema

    def column_names(self) -> List[str]:
        """Unqualified column names, in order."""
        return self._schema.names()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[Any]) -> None:
        """Insert one row given positionally ordered values."""
        if len(values) != len(self._schema):
            raise SchemaError(
                f"{self.name}: expected {len(self._schema)} values, got {len(values)}"
            )
        coerced = tuple(
            coerce_value(value, column.data_type)
            for value, column in zip(values, self._schema.columns)
        )
        self._rows.append(coerced)

    def insert_dict(self, record: Mapping[str, Any]) -> None:
        """Insert one row from a ``{column: value}`` mapping.

        Missing columns become NULL; unknown keys raise.
        """
        unknown = set(record) - set(self._schema.names())
        if unknown:
            raise SchemaError(f"{self.name}: unknown columns {sorted(unknown)}")
        self.insert([record.get(name) for name in self._schema.names()])

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Insert many positional rows."""
        for values in rows:
            self.insert(values)

    def clear(self) -> None:
        """Delete all rows."""
        self._rows.clear()

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def scan(self, predicate: Optional[Expression] = None) -> Iterator[Row]:
        """Yield every row under the qualified schema on which ``predicate``
        (bound once; default none) is strictly ``True``."""
        schema = self._qualified_schema
        test = None if predicate is None else predicate.bind(schema)
        for values in self._rows:
            if test is None or test(values) is True:
                yield Row(schema, values)

    def rows(self) -> List[Row]:
        """Materialize the full scan as a list."""
        return list(self.scan())

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order (accepts bare names)."""
        index = self._schema.index_of(name.split(".", 1)[-1] if "." in name else name)
        return [values[index] for values in self._rows]

    def distinct_values(self, name: str) -> List[Any]:
        """Distinct non-NULL values of one column, in first-seen order."""
        seen = set()
        out: List[Any] = []
        for value in self.column_values(name):
            if value is None or value in seen:
                continue
            seen.add(value)
            out.append(value)
        return out

    def distinct_count(self, name: str) -> int:
        """Number of distinct non-NULL values of one column (``N_i``)."""
        return len(self.distinct_values(name))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, {self._schema!r})"
