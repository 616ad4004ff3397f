"""Unit tests for the TextJoinQuery model."""

import pytest

from repro.core.query import (
    JoinedPair,
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.errors import PlanError
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document


def query(**overrides):
    base = dict(
        relation="student",
        join_predicates=(
            TextJoinPredicate("student.name", "author"),
            TextJoinPredicate("student.advisor", "author"),
        ),
    )
    base.update(overrides)
    return TextJoinQuery(**base)


class TestValidation:
    def test_needs_relation(self):
        with pytest.raises(PlanError):
            query(relation="")

    def test_needs_join_predicate(self):
        with pytest.raises(PlanError):
            query(join_predicates=())

    def test_duplicate_join_columns_rejected(self):
        with pytest.raises(PlanError):
            query(
                join_predicates=(
                    TextJoinPredicate("student.name", "author"),
                    TextJoinPredicate("student.name", "title"),
                )
            )

    def test_long_form_only_for_pairs(self):
        with pytest.raises(PlanError):
            query(shape=ResultShape.DOCIDS, long_form=True)

    def test_empty_selection_parts_rejected(self):
        with pytest.raises(PlanError):
            TextSelection("", "title")
        with pytest.raises(PlanError):
            TextSelection("x", "")

    def test_empty_predicate_parts_rejected(self):
        with pytest.raises(PlanError):
            TextJoinPredicate("", "author")
        with pytest.raises(PlanError):
            TextJoinPredicate("c", "")


class TestViews:
    def test_join_columns(self):
        assert query().join_columns == ("student.name", "student.advisor")

    def test_predicate_on(self):
        q = query()
        assert q.predicate_on("student.name").field == "author"
        with pytest.raises(PlanError):
            q.predicate_on("student.zzz")

    def test_predicates_on_preserves_order(self):
        q = query()
        preds = q.predicates_on(["student.advisor", "student.name"])
        assert [p.column for p in preds] == ["student.name", "student.advisor"]

    def test_predicates_on_unknown_raises(self):
        with pytest.raises(PlanError):
            query().predicates_on(["nope"])


class TestJoinedPair:
    def test_key(self):
        schema = Schema.of(("s.name", DataType.VARCHAR))
        pair = JoinedPair(Row(schema, ["kao"]), Document("d1", {"title": "t"}))
        assert pair.key() == (("kao",), "d1")
