"""Physical operators: iterator-style relational algebra.

Each operator is an iterable of :class:`~repro.relational.row.Row` with an
``output_schema`` describing what it yields.  This is the classic Volcano
pull model, kept to what a plan executes: an already-materialized input
and the nested-loop join, whose ``None`` predicate is the cross product.
Scans and filters are :meth:`Table.scan <repro.relational.table.Table.scan>`
and :func:`~repro.relational.expressions.satisfying`.

The join counts the tuple comparisons it performs so that the benchmark
harness can report relational work alongside text-system cost.
"""

from __future__ import annotations

from operator import length_hint
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.relational.expressions import Expression, Literal
from repro.relational.row import Row
from repro.relational.schema import Schema

__all__ = ["Operator", "MaterializedInput", "NestedLoopJoin"]


class Operator:
    """Base class for physical operators (iterable of rows)."""

    output_schema: Schema

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError


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


class NestedLoopJoin(Operator):
    """Nested loop join with an arbitrary join predicate.

    When iteration starts, the right input is materialized and the
    predicate bound once and tested on value tuples; a pair becomes a
    ``Row`` only if it survives (width checked once per join).
    ``comparisons`` counts the predicate evaluations performed — the
    measure of relational work used by the benchmark harness.
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
        right = [row.values for row in self.right]
        test = (self.predicate or Literal(True)).bind(schema)
        survivors: List[Tuple[Any, ...]] = []
        for left_row in self.left:
            pairs = iter([left_row.values + values for values in right])
            try:
                survivors += [values for values in pairs if test(values) is True]
            finally:
                # A raising predicate consumed its pair: count it too.
                if self.predicate is not None:
                    self.comparisons += len(right) - length_hint(pairs)
        return iter(Row.many(schema, survivors))
