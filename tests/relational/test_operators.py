"""Unit + property tests for the physical operators."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlanError
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators import (
    CrossProduct,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    TableScan,
    materialize,
)
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


def names(rows, column="p.name"):
    return [row[column] for row in rows]


class TestScanFilterProject:
    def test_scan(self, people):
        assert len(list(TableScan(people))) == 5

    def test_filter_keeps_only_true(self, people):
        predicate = Comparison("=", ColumnRef("p.dept"), Literal("cs"))
        out = list(Filter(TableScan(people), predicate))
        # NULL dept evaluates to unknown -> filtered out.
        assert names(out) == ["ann", "cat", "ann"]

    def test_project(self, people):
        out = list(Project(TableScan(people), ["p.dept"]))
        assert out[0].schema.names() == ["p.dept"]
        assert [r["p.dept"] for r in out[:2]] == ["cs", "ee"]


class TestDistinctSortLimit:
    def test_distinct(self, people):
        out = list(Distinct(TableScan(people)))
        assert len(out) == 4  # duplicate (ann, cs) removed

    def test_sort_ascending_nulls_first(self, people):
        out = list(Sort(TableScan(people), ["p.dept"]))
        assert [r["p.dept"] for r in out] == [None, "cs", "cs", "cs", "ee"]

    def test_sort_descending(self, people):
        out = list(Sort(TableScan(people), ["p.name"], descending=True))
        assert names(out)[0] == "dan"

    def test_limit(self, people):
        assert len(list(Limit(TableScan(people), 2))) == 2
        with pytest.raises(PlanError):
            Limit(TableScan(people), -1)


class TestJoins:
    def test_nested_loop_equi(self, people, depts):
        predicate = Comparison("=", ColumnRef("p.dept"), ColumnRef("d.dept"))
        join = NestedLoopJoin(TableScan(people), TableScan(depts), predicate)
        out = list(join)
        assert len(out) == 4  # dan (NULL) matches nothing
        assert join.comparisons == 5 * 3

    def test_hash_join_matches_nested_loop(self, people, depts):
        predicate = Comparison("=", ColumnRef("p.dept"), ColumnRef("d.dept"))
        nl = set(
            r.values
            for r in NestedLoopJoin(TableScan(people), TableScan(depts), predicate)
        )
        hj = set(
            r.values
            for r in HashJoin(
                TableScan(people), TableScan(depts), [("p.dept", "d.dept")]
            )
        )
        assert nl == hj

    def test_hash_join_residual(self, people, depts):
        residual = Comparison("=", ColumnRef("p.name"), Literal("ann"))
        out = list(
            HashJoin(
                TableScan(people),
                TableScan(depts),
                [("p.dept", "d.dept")],
                residual=residual,
            )
        )
        assert names(out) == ["ann", "ann"]

    def test_hash_join_needs_keys(self, people, depts):
        with pytest.raises(PlanError):
            HashJoin(TableScan(people), TableScan(depts), [])

    def test_cross_product(self, people, depts):
        out = list(CrossProduct(TableScan(people), TableScan(depts)))
        assert len(out) == 15

    def test_join_schema_concat(self, people, depts):
        join = NestedLoopJoin(TableScan(people), TableScan(depts))
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
        with counting_schemas(monkeypatch) as built:
            rows = list(make_join(TableScan(lt), TableScan(rt)))
        assert len(rows) == size * size
        return len(built)

    @pytest.mark.parametrize(
        "make_join",
        [
            lambda left, right: NestedLoopJoin(
                left, right, Comparison("=", ColumnRef("l.k"), ColumnRef("r.k"))
            ),
            lambda left, right: HashJoin(left, right, [("l.k", "r.k")]),
            CrossProduct,
        ],
        ids=["nested_loop", "hash", "cross_product"],
    )
    def test_schema_count_independent_of_pair_count(self, monkeypatch, make_join):
        small = self.schemas_built(monkeypatch, make_join, 10)
        large = self.schemas_built(monkeypatch, make_join, 40)
        assert small == large


class TestMaterialize:
    def test_materialize_round_trip(self, people):
        mat = materialize(TableScan(people))
        assert len(mat) == 5
        assert list(mat)[0]["p.name"] == "ann"

    def test_materialized_input_reiterable(self, people):
        mat = materialize(TableScan(people))
        assert len(list(mat)) == len(list(mat))


@given(
    left=st.lists(st.integers(0, 5), max_size=12),
    right=st.lists(st.integers(0, 5), max_size=12),
)
def test_hash_join_equals_nested_loop_property(left, right):
    """HashJoin and NestedLoopJoin agree on random integer tables."""
    lt = Table("l", Schema.of(("k", DataType.INTEGER)))
    rt = Table("r", Schema.of(("k", DataType.INTEGER)))
    for v in left:
        lt.insert([v])
    for v in right:
        rt.insert([v])
    predicate = Comparison("=", ColumnRef("l.k"), ColumnRef("r.k"))
    nl = sorted(
        r.values for r in NestedLoopJoin(TableScan(lt), TableScan(rt), predicate)
    )
    hj = sorted(
        r.values for r in HashJoin(TableScan(lt), TableScan(rt), [("l.k", "r.k")])
    )
    assert nl == hj
