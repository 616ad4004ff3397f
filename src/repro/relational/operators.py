"""Physical operators: iterator-style relational algebra.

Each operator is an iterable of :class:`~repro.relational.row.Row` with an
``output_schema`` describing what it yields.  This is the classic Volcano
pull model, kept deliberately small: the paper's relational side only
needs scans, filters, projections, joins, distinct and sort.

Join operators count the tuple comparisons they perform so that the
benchmark harness can report relational work alongside text-system cost.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.expressions import Expression
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = [
    "Operator",
    "TableScan",
    "MaterializedInput",
    "Filter",
    "Project",
    "Distinct",
    "Sort",
    "Limit",
    "NestedLoopJoin",
    "HashJoin",
    "CrossProduct",
    "materialize",
]


class Operator:
    """Base class for physical operators (iterable of rows)."""

    output_schema: Schema

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError


class TableScan(Operator):
    """Full scan of a base table under its qualified schema."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self.output_schema = table.schema

    def __iter__(self) -> Iterator[Row]:
        return self.table.scan()


class MaterializedInput(Operator):
    """Wrap an already-materialized list of rows as an operator.

    Used for intermediate results (e.g. a probe-reduced relation) that are
    fed back into further joins.
    """

    def __init__(self, schema: Schema, rows: Sequence[Row]) -> None:
        self.output_schema = schema
        self._rows = list(rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class Filter(Operator):
    """Keep rows where the predicate is strictly ``True`` (SQL semantics)."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate
        self.output_schema = child.output_schema

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            if self.predicate.evaluate(row) is True:
                yield row


class Project(Operator):
    """Project to the named columns (qualified or unambiguous bare names)."""

    def __init__(self, child: Operator, names: Sequence[str]) -> None:
        self.child = child
        self.names = list(names)
        self.output_schema = child.output_schema.project(self.names)
        self._indexes = [child.output_schema.index_of(name) for name in self.names]

    def __iter__(self) -> Iterator[Row]:
        schema = self.output_schema
        for row in self.child:
            yield Row(schema, tuple(row.values[i] for i in self._indexes))


class Distinct(Operator):
    """Remove duplicate rows (hash-based, preserves first-seen order)."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.output_schema = child.output_schema

    def __iter__(self) -> Iterator[Row]:
        seen: set = set()
        for row in self.child:
            if row.values in seen:
                continue
            seen.add(row.values)
            yield row


class Sort(Operator):
    """Sort by the named columns (NULLs first, ascending)."""

    def __init__(
        self, child: Operator, names: Sequence[str], descending: bool = False
    ) -> None:
        self.child = child
        self.names = list(names)
        self.descending = descending
        self.output_schema = child.output_schema
        self._indexes = [child.output_schema.index_of(name) for name in self.names]

    def __iter__(self) -> Iterator[Row]:
        def key(row: Row) -> Tuple[Tuple[bool, Any], ...]:
            # (is_not_null, value) sorts NULLs first and avoids None/any
            # comparisons.
            return tuple(
                (row.values[i] is not None, row.values[i]) for i in self._indexes
            )

        yield from sorted(self.child, key=key, reverse=self.descending)


class Limit(Operator):
    """Pass through at most ``count`` rows."""

    def __init__(self, child: Operator, count: int) -> None:
        if count < 0:
            raise PlanError("limit count must be non-negative")
        self.child = child
        self.count = count
        self.output_schema = child.output_schema

    def __iter__(self) -> Iterator[Row]:
        return itertools.islice(iter(self.child), self.count)


class NestedLoopJoin(Operator):
    """Nested loop join with an arbitrary join predicate.

    The right input is materialized once.  ``comparisons`` counts the
    predicate evaluations performed — the measure of relational work used
    by the benchmark harness.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[Expression] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.output_schema = left.output_schema.concat(right.output_schema)
        self.comparisons = 0

    def __iter__(self) -> Iterator[Row]:
        schema = self.output_schema
        right_rows = list(self.right)
        for left_row in self.left:
            for right_row in right_rows:
                joined = Row(schema, left_row.values + right_row.values)
                if self.predicate is None:
                    yield joined
                    continue
                self.comparisons += 1
                if self.predicate.evaluate(joined) is True:
                    yield joined


class HashJoin(Operator):
    """Equi-join on column pairs, with an optional residual predicate.

    ``keys`` is a list of ``(left column, right column)`` pairs.  The right
    (build) side is hashed; NULL keys never match, per SQL semantics.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        keys: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
    ) -> None:
        if not keys:
            raise PlanError("HashJoin requires at least one key pair")
        self.left = left
        self.right = right
        self.keys = list(keys)
        self.residual = residual
        self.output_schema = left.output_schema.concat(right.output_schema)
        self._left_indexes = [
            left.output_schema.index_of(left_name) for left_name, _ in self.keys
        ]
        self._right_indexes = [
            right.output_schema.index_of(right_name) for _, right_name in self.keys
        ]
        self.comparisons = 0

    def __iter__(self) -> Iterator[Row]:
        schema = self.output_schema
        build: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in self.right:
            key = tuple(row.values[i] for i in self._right_indexes)
            if any(part is None for part in key):
                continue
            build.setdefault(key, []).append(row)
        for left_row in self.left:
            key = tuple(left_row.values[i] for i in self._left_indexes)
            if any(part is None for part in key):
                continue
            for right_row in build.get(key, ()):
                joined = Row(schema, left_row.values + right_row.values)
                if self.residual is not None:
                    self.comparisons += 1
                    if self.residual.evaluate(joined) is not True:
                        continue
                yield joined


class CrossProduct(Operator):
    """Cartesian product (nested loop with no predicate)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        self.left = left
        self.right = right
        self.output_schema = left.output_schema.concat(right.output_schema)

    def __iter__(self) -> Iterator[Row]:
        schema = self.output_schema
        right_rows = list(self.right)
        for left_row in self.left:
            for right_row in right_rows:
                yield Row(schema, left_row.values + right_row.values)


def materialize(operator: Operator) -> MaterializedInput:
    """Run an operator to completion and wrap the result."""
    return MaterializedInput(operator.output_schema, list(operator))
