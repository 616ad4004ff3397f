"""Schemas: ordered, named, typed column lists.

Columns are addressed by *qualified* names such as ``student.name``.  A
bare name (``name``) resolves as long as it is unambiguous across the
schema — the same rule SQL uses for unqualified column references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.types import DataType

__all__ = ["Column", "Schema"]


@dataclass(frozen=True)
class Column:
    """A single schema column.

    ``name`` may be qualified (``student.name``) or bare (``name``).
    """

    name: str
    data_type: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.name.count(".") > 1:
            raise SchemaError(f"column name {self.name!r} has too many qualifiers")

    @property
    def qualifier(self) -> Optional[str]:
        """The table qualifier, or ``None`` for a bare column name."""
        if "." in self.name:
            return self.name.split(".", 1)[0]
        return None

    @property
    def bare_name(self) -> str:
        """The column name without its table qualifier."""
        if "." in self.name:
            return self.name.split(".", 1)[1]
        return self.name

    def qualified(self, qualifier: str) -> "Column":
        """Return a copy of this column qualified with ``qualifier``."""
        return Column(f"{qualifier}.{self.bare_name}", self.data_type)


class Schema:
    """An ordered collection of :class:`Column` with name resolution.

    Column lookup accepts either the exact (possibly qualified) name or a
    bare name when that bare name is unique within the schema.
    """

    __slots__ = ("_columns", "_by_name", "_by_bare")

    def __init__(self, columns: Iterable[Column]) -> None:
        self._columns: Tuple[Column, ...] = tuple(columns)
        self._by_name = {}
        self._by_bare = {}
        for index, column in enumerate(self._columns):
            if column.name in self._by_name:
                raise SchemaError(f"duplicate column {column.name!r}")
            self._by_name[column.name] = index
            self._by_bare.setdefault(column.bare_name, []).append(index)

    @classmethod
    def of(cls, *specs: Tuple[str, DataType]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs.

        >>> Schema.of(("name", DataType.VARCHAR), ("year", DataType.INTEGER))
        """
        return cls(Column(name, data_type) for name, data_type in specs)

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name} {c.data_type.value}" for c in self._columns)
        return f"Schema({inner})"

    def names(self) -> List[str]:
        """All column names in order."""
        return [column.name for column in self._columns]

    def index_of(self, name: str) -> int:
        """Resolve ``name`` to a column position.

        Exact (qualified) matches win; otherwise a bare name resolves if
        unambiguous.  Raises :class:`SchemaError` for unknown or ambiguous
        names.
        """
        if name in self._by_name:
            return self._by_name[name]
        candidates = self._by_bare.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            matches = [self._columns[i].name for i in candidates]
            raise SchemaError(f"ambiguous column {name!r}: matches {matches}")
        raise SchemaError(f"unknown column {name!r} in {self!r}")

    def column(self, name: str) -> Column:
        """Resolve ``name`` to its :class:`Column`."""
        return self._columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        """True if ``name`` resolves (exactly or as a unique bare name)."""
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    def qualified(self, qualifier: str) -> "Schema":
        """Return this schema with every column re-qualified."""
        return Schema(column.qualified(qualifier) for column in self._columns)

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (for join outputs).

        Convenience, one schema built and validated per call; operators
        call it in their constructor and build rows against the result.
        """
        return Schema(self._columns + other._columns)

    def project(self, names: Sequence[str]) -> "Schema":
        """A schema containing only the named columns, in the given order
        (one schema per call, like :meth:`concat`: once per operator)."""
        return Schema(self.column(name) for name in names)
