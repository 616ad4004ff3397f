"""Catalog: a registry of named tables.

The catalog is the relational engine's entry point for name resolution:
operators and the optimizer look tables up here rather than holding raw
references, which keeps query descriptions serializable (they mention
table *names*).
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.errors import CatalogError
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = ["Catalog"]


class Catalog:
    """A mutable mapping of table name to :class:`Table`."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create and register an empty table. Raises on duplicates."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name. Raises :class:`CatalogError` if missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:
        return f"Catalog({list(self._tables)})"
