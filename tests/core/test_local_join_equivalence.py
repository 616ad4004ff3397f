"""Differential tests: the hoisted local-join loops against the per-pair
loops they replaced (kept verbatim in ``reference_local_join.py``).

Nothing observable may move: ``rtp_match_pairs`` returns the same pairs
in the same (document-major) order, charges the same ``c_a`` total and
raises ``SchemaError`` exactly when the per-pair loop does; the three
join operators yield the same rows in the same order with the same
``comparisons``; ``group_by_columns`` groups as the by-name version does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.joinmethods.base import (
    JoinContext,
    group_by_columns,
    rtp_match,
    rtp_match_pairs,
)
from repro.core.query import JoinedPair, TextJoinPredicate
from repro.errors import SchemaError
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.expressions import ColumnRef, Comparison
from repro.relational.operators import (
    CrossProduct,
    HashJoin,
    MaterializedInput,
    NestedLoopJoin,
)
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.server import BooleanTextServer
from tests.core.reference_local_join import (
    ReferenceCrossProduct,
    ReferenceHashJoin,
    ReferenceNestedLoopJoin,
    reference_group_by_columns,
    reference_rtp_match_pairs,
)

# Two schema objects over the same relation; the second lacks ``s.c``, so
# a predicate on it raises only when a pair with such a row reaches it.
WIDE = Schema.of(
    ("s.a", DataType.VARCHAR), ("s.b", DataType.INTEGER), ("s.c", DataType.VARCHAR)
)
NARROW = Schema.of(("s.b", DataType.INTEGER), ("s.a", DataType.VARCHAR))

words = st.sampled_from(["alpha", "beta", "gamma", "1993", "7"])
join_values = st.one_of(
    st.none(),
    st.sampled_from(["???", "", "Alpha", "beta gamma", "alpha beta gamma"]),
    words,
    st.sampled_from([1993, 7, 0]),
)


@st.composite
def relation_rows(draw):
    schema = draw(st.sampled_from([WIDE, NARROW]))
    return Row(schema, [draw(join_values) for _ in range(len(schema))])


field_texts = st.lists(words, max_size=6).map(" ".join)
documents = st.builds(
    Document,
    docid=st.sampled_from(["d1", "d2", "d3"]),
    # Any subset of the fields: a missing one reads as the empty string.
    fields=st.dictionaries(st.sampled_from(["f", "g", "h"]), field_texts),
)
predicates = st.lists(
    st.builds(
        TextJoinPredicate,
        column=st.sampled_from(["s.a", "s.b", "s.c", "a", "s.unknown"]),
        field=st.sampled_from(["f", "g", "h"]),
    ),
    min_size=1,
    max_size=3,
)


def fresh_context() -> JoinContext:
    return JoinContext(Catalog(), TextClient(BooleanTextServer(DocumentStore(["f"]))))


def outcome(function, *args):
    """(result, charged total), with a SchemaError as the result."""
    context = fresh_context()
    try:
        result = function(context, *args)
    except SchemaError:
        result = SchemaError
    return result, context.client.ledger.total


@settings(max_examples=300, deadline=None)
@given(
    # Lists of a small pool repeat documents (same docid, same object).
    docs=st.lists(documents, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=5)
        if pool
        else st.just([])
    ),
    rows=st.lists(relation_rows(), max_size=5),
    predicates=predicates,
)
def test_rtp_match_pairs_equals_per_pair_loop(docs, rows, predicates):
    expected, expected_total = outcome(
        reference_rtp_match_pairs, docs, rows, predicates
    )
    actual, actual_total = outcome(rtp_match_pairs, docs, rows, predicates)
    assert actual_total == expected_total
    if expected is SchemaError:
        assert actual is SchemaError
        return
    assert actual == expected
    # The very same row and document objects, not equal copies.
    assert [(id(p.row), id(p.document)) for p in actual] == [
        (id(p.row), id(p.document)) for p in expected
    ]
    if not docs or not rows:
        # No pairs: no column is looked up (so none can be unknown).
        assert actual == [] and actual_total == 0.0
    # The exported per-pair form still agrees pair by pair.
    assert actual == [
        JoinedPair(row, document)
        for document in docs
        for row in rows
        if rtp_match(row, document, predicates)
    ]


def test_rtp_match_pairs_unknown_column_only_raises_when_reached():
    """Predicates short-circuit left to right: the second one's column is
    looked up only for pairs that passed the first."""
    rows = [Row(WIDE, ["alpha", 1, "x"])]
    predicates = [TextJoinPredicate("s.a", "f"), TextJoinPredicate("s.unknown", "f")]
    miss = [Document("d1", {"f": "beta"})]
    hit = [Document("d2", {"f": "alpha"})]
    assert rtp_match_pairs(fresh_context(), miss, rows, predicates) == []
    with pytest.raises(SchemaError):
        rtp_match_pairs(fresh_context(), hit, rows, predicates)
    with pytest.raises(SchemaError):
        reference_rtp_match_pairs(fresh_context(), hit, rows, predicates)


# ----------------------------------------------------------------------
# join operators
# ----------------------------------------------------------------------
LEFT = Schema.of(("l.k", DataType.INTEGER), ("l.v", DataType.INTEGER))
RIGHT = Schema.of(("r.k", DataType.INTEGER), ("r.v", DataType.INTEGER))
cells = st.one_of(st.none(), st.integers(0, 3))


def side(schema):
    return st.lists(st.tuples(cells, cells), max_size=6).map(
        lambda values: MaterializedInput(schema, [Row(schema, v) for v in values])
    )


EQUAL_KEYS = Comparison("=", ColumnRef("l.k"), ColumnRef("r.k"))
LEFT_SMALLER = Comparison("<", ColumnRef("l.v"), ColumnRef("r.v"))


def assert_same_join(operator, reference):
    assert list(operator) == list(reference)  # values and schema, in order
    assert getattr(operator, "comparisons", 0) == getattr(reference, "comparisons", 0)


@settings(max_examples=100, deadline=None)
@given(
    left=side(LEFT),
    right=side(RIGHT),
    predicate=st.sampled_from([None, EQUAL_KEYS, LEFT_SMALLER]),
)
def test_nested_loop_join_equals_concat_loop(left, right, predicate):
    assert_same_join(
        NestedLoopJoin(left, right, predicate),
        ReferenceNestedLoopJoin(left, right, predicate),
    )


@settings(max_examples=100, deadline=None)
@given(
    left=side(LEFT),
    right=side(RIGHT),
    residual=st.sampled_from([None, LEFT_SMALLER]),
)
def test_hash_join_equals_concat_loop(left, right, residual):
    keys = [("l.k", "r.k")]
    assert_same_join(
        HashJoin(left, right, keys, residual),
        ReferenceHashJoin(left, right, keys, residual),
    )


@settings(max_examples=50, deadline=None)
@given(left=side(LEFT), right=side(RIGHT))
def test_cross_product_equals_concat_loop(left, right):
    assert_same_join(CrossProduct(left, right), ReferenceCrossProduct(left, right))


@settings(max_examples=50, deadline=None)
@given(left=side(LEFT), right=side(RIGHT))
def test_joined_rows_carry_the_operator_schema(left, right):
    """One schema per operator: every yielded row points at it."""
    for operator in (
        NestedLoopJoin(left, right, LEFT_SMALLER),
        HashJoin(left, right, [("l.k", "r.k")]),
        CrossProduct(left, right),
    ):
        assert all(row.schema is operator.output_schema for row in operator)


# ----------------------------------------------------------------------
# group_by_columns
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(relation_rows(), max_size=8),
    columns=st.lists(
        st.sampled_from(["s.a", "s.b", "a", "b", "s.c", "s.unknown"]),
        min_size=1,
        max_size=2,
    ),
)
def test_group_by_columns_equals_by_name_lookup(rows, columns):
    """Rows of two schema objects (different column positions) in one
    call: positions are re-resolved per schema, errors are unchanged."""
    try:
        expected = reference_group_by_columns(rows, columns)
    except SchemaError:
        with pytest.raises(SchemaError):
            group_by_columns(rows, columns)
        return
    actual = group_by_columns(rows, columns)
    assert list(actual.items()) == list(expected.items())  # first-seen order


def test_group_by_columns_rejects_ambiguous_column():
    schema = Schema.of(("s.name", DataType.VARCHAR), ("t.name", DataType.VARCHAR))
    with pytest.raises(SchemaError, match="ambiguous"):
        group_by_columns([Row(schema, ["x", "y"])], ["name"])
    assert group_by_columns([], ["name"]) == {}
