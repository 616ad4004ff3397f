"""Unit tests for the physical operators a plan executes: base-table
scans (``Table.scan``, filtered or not), materialized inputs, and the
nested-loop join (with no predicate, the cross product)."""

import pytest

from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators import MaterializedInput, NestedLoopJoin
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from tests.conftest import counting_schemas


@pytest.fixture
def people():
    table = Table(
        "p", Schema.of(("name", DataType.VARCHAR), ("dept", DataType.VARCHAR))
    )
    table.insert_many(
        [
            ["ann", "cs"],
            ["bob", "ee"],
            ["cat", "cs"],
            ["dan", None],
            ["ann", "cs"],
        ]
    )
    return table


@pytest.fixture
def depts():
    table = Table(
        "d", Schema.of(("dept", DataType.VARCHAR), ("floor", DataType.INTEGER))
    )
    table.insert_many([["cs", 1], ["ee", 2], ["me", 3]])
    return table


def scan(table):
    return MaterializedInput(table.schema, list(table.scan()))


def names(rows, column="p.name"):
    return [row[column] for row in rows]


class TestScanFilterProject:
    def test_scan(self, people):
        assert len(list(people.scan())) == 5

    def test_filter_keeps_only_true(self, people):
        predicate = Comparison("=", ColumnRef("p.dept"), Literal("cs"))
        out = list(people.scan(predicate))
        # NULL dept evaluates to unknown -> filtered out.
        assert names(out) == ["ann", "cat", "ann"]


class TestJoins:
    def test_nested_loop_equi(self, people, depts):
        predicate = Comparison("=", ColumnRef("p.dept"), ColumnRef("d.dept"))
        join = NestedLoopJoin(scan(people), scan(depts), predicate)
        out = list(join)
        assert len(out) == 4  # dan (NULL) matches nothing
        assert join.comparisons == 5 * 3

    def test_cross_product(self, people, depts):
        join = NestedLoopJoin(scan(people), scan(depts))
        assert len(list(join)) == 15
        assert join.comparisons == 0

    def test_join_schema_concat(self, people, depts):
        join = NestedLoopJoin(scan(people), scan(depts))
        assert join.output_schema.names() == [
            "p.name",
            "p.dept",
            "d.dept",
            "d.floor",
        ]


class TestOneSchemaPerOperator:
    """A join derives its output schema once, in the constructor — the
    number of ``Schema`` objects it builds does not grow with the number
    of candidate pairs."""

    @staticmethod
    def schemas_built(monkeypatch, make_join, size):
        lt = Table("l", Schema.of(("k", DataType.INTEGER)))
        rt = Table("r", Schema.of(("k", DataType.INTEGER)))
        lt.insert_many([[0]] * size)
        rt.insert_many([[0]] * size)
        left, right = scan(lt), scan(rt)
        with counting_schemas(monkeypatch) as built:
            rows = list(make_join(left, right))
        assert len(rows) == size * size
        return len(built)

    @pytest.mark.parametrize(
        "make_join",
        [
            lambda left, right: NestedLoopJoin(
                left, right, Comparison("=", ColumnRef("l.k"), ColumnRef("r.k"))
            ),
            NestedLoopJoin,
        ],
        ids=["nested_loop", "cross_product"],
    )
    def test_schema_count_independent_of_pair_count(self, monkeypatch, make_join):
        small = self.schemas_built(monkeypatch, make_join, 10)
        large = self.schemas_built(monkeypatch, make_join, 40)
        assert small == large


class TestMaterialize:
    def test_materialize_round_trip(self, people):
        mat = scan(people)
        assert len(mat) == 5
        assert list(mat)[0]["p.name"] == "ann"

    def test_materialized_input_reiterable(self, people):
        mat = scan(people)
        assert len(list(mat)) == len(list(mat))
