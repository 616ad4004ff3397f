"""Unit tests for the multi-join query model."""

import pytest

from repro.core.optimizer.multiquery import (
    TEXT_SOURCE,
    MultiJoinQuery,
    RelationalJoinPredicate,
)
from repro.core.query import TextJoinPredicate, TextSelection
from repro.errors import PlanError
from repro.relational.expressions import ColumnRef, Comparison


def join_pred(a="faculty", b="student"):
    return RelationalJoinPredicate(
        Comparison("!=", ColumnRef(f"{a}.dept"), ColumnRef(f"{b}.dept")),
        (a, b),
    )


def q5(**overrides):
    base = dict(
        relations=("student", "faculty"),
        text_predicates=(
            TextJoinPredicate("student.name", "author"),
            TextJoinPredicate("faculty.name", "author"),
        ),
        text_selections=(TextSelection("may 1993", "year"),),
        join_predicates=(join_pred(),),
    )
    base.update(overrides)
    return MultiJoinQuery(**base)


class TestValidation:
    def test_valid(self):
        q5()

    def test_duplicate_relations_rejected(self):
        with pytest.raises(PlanError):
            q5(relations=("student", "student"))

    def test_unqualified_text_column_rejected(self):
        with pytest.raises(PlanError):
            q5(text_predicates=(TextJoinPredicate("name", "author"),))

    def test_unknown_relation_in_text_predicate(self):
        with pytest.raises(PlanError):
            q5(text_predicates=(TextJoinPredicate("nobody.name", "author"),))

    def test_unknown_relation_in_join_predicate(self):
        with pytest.raises(PlanError):
            q5(join_predicates=(join_pred("faculty", "ghost"),))

    def test_join_predicate_needs_two_relations(self):
        with pytest.raises(PlanError):
            RelationalJoinPredicate(
                Comparison("=", ColumnRef("a.x"), ColumnRef("a.y")), ("a", "a")
            )

    def test_must_reference_text_source(self):
        with pytest.raises(PlanError):
            q5(text_predicates=(), text_selections=())

    def test_text_source_name_collision(self):
        with pytest.raises(PlanError):
            q5(text_source="student")

    def test_unknown_local_predicate_relation(self):
        with pytest.raises(PlanError):
            q5(local_predicates=(("ghost", Comparison("=", ColumnRef("x"), ColumnRef("y"))),))


class TestViews:
    def test_text_predicates_of(self):
        query = q5()
        preds = query.text_predicates_of("student")
        assert [p.column for p in preds] == ["student.name"]

    def test_text_predicates_within(self):
        query = q5()
        assert len(query.text_predicates_within(["student"])) == 1
        assert len(query.text_predicates_within(["student", "faculty"])) == 2
        assert query.text_predicates_within([]) == ()

    def test_join_predicates_between(self):
        query = q5()
        assert len(query.join_predicates_between(["student"], "faculty")) == 1
        assert query.join_predicates_between([], "faculty") == ()

    def test_relations_with_text_predicates(self):
        assert q5().relations_with_text_predicates() == ("student", "faculty")

    def test_local_predicate_lookup(self):
        predicate = Comparison("=", ColumnRef("student.dept"), ColumnRef("student.dept"))
        query = q5(local_predicates=(("student", predicate),))
        assert query.local_predicate("student") is predicate
        assert query.local_predicate("faculty") is None

    def test_text_source_constant_distinct(self):
        assert TEXT_SOURCE not in q5().relations
