"""Unit + property tests for the expression language (3-valued logic),
and differential tests of the bound path against the by-name evaluator
it replaced (``reference_expressions.py``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.textmatch import TextMatch
from repro.errors import ExpressionError, SchemaError, TypeMismatchError
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    conjoin,
    conjuncts,
    satisfying,
)
from repro.relational.operators import MaterializedInput, NestedLoopJoin
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from tests.core.reference_local_join import ReferenceNestedLoopJoin, reference_filter
from tests.relational.reference_expressions import reference_evaluate

SCHEMA = Schema.of(
    ("s.name", DataType.VARCHAR),
    ("s.year", DataType.INTEGER),
    ("s.note", DataType.VARCHAR),
)


def row(name="kao", year=3, note="belief update matters"):
    return Row(SCHEMA, [name, year, note])


class TestComparison:
    def test_operators(self):
        r = row(year=3)
        assert Comparison("=", ColumnRef("s.year"), Literal(3)).evaluate(r) is True
        assert Comparison("!=", ColumnRef("s.year"), Literal(3)).evaluate(r) is False
        assert Comparison("<", ColumnRef("s.year"), Literal(4)).evaluate(r) is True
        assert Comparison("<=", ColumnRef("s.year"), Literal(3)).evaluate(r) is True
        assert Comparison(">", ColumnRef("s.year"), Literal(3)).evaluate(r) is False
        assert Comparison(">=", ColumnRef("s.year"), Literal(4)).evaluate(r) is False

    def test_null_is_unknown(self):
        r = row(year=None)
        assert Comparison("=", ColumnRef("s.year"), Literal(3)).evaluate(r) is None
        assert Comparison("!=", ColumnRef("s.year"), Literal(3)).evaluate(r) is None

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~", Literal(1), Literal(2))

    def test_type_mismatch_raises(self):
        with pytest.raises(TypeMismatchError):
            Comparison("<", ColumnRef("s.name"), Literal(3)).evaluate(row())


class TestBooleanLogic:
    def test_and_short_circuit_false_beats_unknown(self):
        unknown = Comparison("=", ColumnRef("s.year"), Literal(1))
        false = Comparison("=", Literal(1), Literal(2))
        assert And((unknown, false)).evaluate(row(year=None)) is False

    def test_and_unknown_when_no_false(self):
        unknown = Comparison("=", ColumnRef("s.year"), Literal(1))
        true = Comparison("=", Literal(1), Literal(1))
        assert And((unknown, true)).evaluate(row(year=None)) is None

    def test_or_true_beats_unknown(self):
        unknown = Comparison("=", ColumnRef("s.year"), Literal(1))
        true = Comparison("=", Literal(1), Literal(1))
        assert Or((unknown, true)).evaluate(row(year=None)) is True

    def test_or_unknown_when_no_true(self):
        unknown = Comparison("=", ColumnRef("s.year"), Literal(1))
        false = Comparison("=", Literal(1), Literal(2))
        assert Or((unknown, false)).evaluate(row(year=None)) is None

    def test_not_of_unknown_is_unknown(self):
        unknown = Comparison("=", ColumnRef("s.year"), Literal(1))
        assert Not(unknown).evaluate(row(year=None)) is None

    def test_operator_overloads(self):
        a = Comparison("=", Literal(1), Literal(1))
        b = Comparison("=", Literal(2), Literal(2))
        assert (a & b).evaluate(row()) is True
        assert (a | b).evaluate(row()) is True
        assert (~a).evaluate(row()) is False

    def test_empty_connectives_rejected(self):
        with pytest.raises(ExpressionError):
            And(())
        with pytest.raises(ExpressionError):
            Or(())


class TestConjuncts:
    def test_flattening(self):
        a = Comparison("=", Literal(1), Literal(1))
        b = Comparison("=", Literal(2), Literal(2))
        c = Comparison("=", Literal(3), Literal(3))
        nested = And((a, And((b, c))))
        assert conjuncts(nested) == [a, b, c]

    def test_conjoin_roundtrip(self):
        a = Comparison("=", Literal(1), Literal(1))
        b = Comparison("=", Literal(2), Literal(2))
        assert conjoin([]) is None
        assert conjoin([a]) is a
        assert conjuncts(conjoin([a, b])) == [a, b]


@given(
    year=st.one_of(st.none(), st.integers(-5, 5)),
    bound=st.integers(-5, 5),
)
def test_comparison_never_true_and_false_complement(year, bound):
    """For non-NULL values, = and != are complementary; NULL gives unknown."""
    r = row(year=year)
    eq = Comparison("=", ColumnRef("s.year"), Literal(bound)).evaluate(r)
    ne = Comparison("!=", ColumnRef("s.year"), Literal(bound)).evaluate(r)
    if year is None:
        assert eq is None and ne is None
    else:
        assert eq == (not ne)


@given(values=st.lists(st.booleans(), min_size=1, max_size=6))
def test_and_or_match_python_semantics_on_booleans(values):
    operands = tuple(Comparison("=", Literal(v), Literal(True)) for v in values)
    r = row()
    assert And(operands).evaluate(r) == all(values)
    assert Or(operands).evaluate(r) == any(values)


class TestBindOnce:
    def test_unresolvable_column_raises_only_when_reached(self):
        unknown = Comparison("=", ColumnRef("s.missing"), Literal(1))
        guarded = And((Comparison("=", Literal(1), Literal(2)), unknown))
        assert guarded.bind(SCHEMA)(row().values) is False
        with pytest.raises(SchemaError):
            unknown.bind(SCHEMA)(row().values)


# ----------------------------------------------------------------------
# differential: bound path vs the by-name evaluator
# ----------------------------------------------------------------------
DIFF_SCHEMA = Schema.of(
    ("s.name", DataType.VARCHAR),
    ("t.name", DataType.VARCHAR),
    ("s.year", DataType.INTEGER),
    ("s.note", DataType.VARCHAR),
)
# The same columns in another order: a second schema object.
PERMUTED = Schema.of(
    ("s.note", DataType.VARCHAR),
    ("s.year", DataType.INTEGER),
    ("t.name", DataType.VARCHAR),
    ("s.name", DataType.VARCHAR),
)
# Qualified, unique bare ("year"), ambiguous bare ("name") and unknown.
DIFF_NAMES = ["s.name", "t.name", "name", "year", "s.year", "s.note", "s.missing"]
OPS = ["=", "!=", "<", "<=", ">", ">="]
ints = st.one_of(st.none(), st.integers(-2, 3))
strings = st.one_of(
    st.none(),
    st.sampled_from(["kao", "Kao", "belief update", "a.c", "1993", "", "x%"]),
)
scalars = st.one_of(ints, strings)


def expression_trees(names):
    leaves = st.one_of(
        st.builds(ColumnRef, st.sampled_from(names)), st.builds(Literal, scalars)
    )

    def extend(children):
        operands = st.lists(children, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Comparison, st.sampled_from(OPS), children, children),
            st.builds(And, operands),
            st.builds(Or, operands),
            st.builds(Not, children),
            st.builds(TextMatch, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def diff_rows(schema):
    cell = {DataType.VARCHAR: strings, DataType.INTEGER: ints}
    return st.tuples(*(cell[column.data_type] for column in schema)).map(
        lambda values: Row(schema, values)
    )


def outcome(function, *args):
    """(type, value) of the result, or the exception class raised."""
    try:
        value = function(*args)
    except Exception as error:  # noqa: BLE001 - compared by class
        return type(error)
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(
    expression=expression_trees(DIFF_NAMES),
    diff_row=st.one_of(diff_rows(DIFF_SCHEMA), diff_rows(PERMUTED)),
)
def test_bound_expression_equals_by_name_evaluate(expression, diff_row):
    expected = outcome(reference_evaluate, expression, diff_row)
    bound = expression.bind(diff_row.schema)  # binding itself never raises
    assert outcome(bound, diff_row.values) == expected
    assert outcome(expression.evaluate, diff_row) == expected


@settings(max_examples=150, deadline=None)
@given(
    predicate=expression_trees(DIFF_NAMES),
    rows=st.lists(st.one_of(diff_rows(DIFF_SCHEMA), diff_rows(PERMUTED)), max_size=6),
)
def test_filter_equals_by_name_filter(predicate, rows):
    """Rows of two schema objects in one input: rebound per schema run."""
    assert_same_rows(satisfying(predicate, rows), reference_filter(predicate, rows))


LEFT = Schema.of(("l.k", DataType.INTEGER), ("l.s", DataType.VARCHAR))
RIGHT = Schema.of(("r.k", DataType.INTEGER), ("r.s", DataType.VARCHAR))
JOIN_NAMES = ["l.k", "r.k", "k", "l.s", "r.s", "s", "r.missing"]


def side(schema):
    return st.lists(diff_rows(schema), max_size=5).map(
        lambda rows: MaterializedInput(schema, rows)
    )


def assert_same_rows(operator, reference):
    """Same rows in the same order (or the same error), same comparisons."""
    assert outcome(list, operator) == outcome(list, reference)
    assert getattr(operator, "comparisons", 0) == getattr(reference, "comparisons", 0)


@settings(max_examples=150, deadline=None)
@given(
    left=side(LEFT),
    right=side(RIGHT),
    predicate=st.one_of(st.none(), expression_trees(JOIN_NAMES)),
)
def test_join_operators_equal_by_name_joins(left, right, predicate):
    assert_same_rows(
        NestedLoopJoin(left, right, predicate),
        ReferenceNestedLoopJoin(left, right, predicate),
    )
    if predicate is not None:
        product = NestedLoopJoin(left, right)
        assert_same_rows(
            satisfying(predicate, product), reference_filter(predicate, product)
        )
