"""In-memory relational engine substrate.

This subpackage implements the database-system side of the paper's loose
integration, as far as a plan executes it: typed tables in a catalog, a
predicate language with SQL three-valued logic, and the two operators the
executor runs (materialized inputs and the nested-loop join; a join with
no predicate is the cross product).  Matching join values against fetched
documents lives in :mod:`repro.core.textmatch`.
"""

from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    conjoin,
    conjuncts,
)
from repro.relational.operators import MaterializedInput, NestedLoopJoin, Operator
from repro.relational.row import Row
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value

__all__ = [
    "Catalog",
    "Column",
    "Schema",
    "Row",
    "Table",
    "DataType",
    "coerce_value",
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "conjoin",
    "conjuncts",
    "Operator",
    "MaterializedInput",
    "NestedLoopJoin",
]
