"""Property tests: parse_query(render_query(q)) == q for random queries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer.multiquery import MultiJoinQuery, RelationalJoinPredicate
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.core.surface import parse_query, render_query
from repro.relational.expressions import ColumnRef, Comparison, Literal, conjoin

RELATIONS = ["student", "project", "faculty"]
COLUMNS = ["name", "advisor", "member"]
FIELDS = ["title", "author", "year"]
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
TERMS = ["belief update", "text", "may 1993"]

relation_names = st.sampled_from(RELATIONS)
operators = st.sampled_from(OPERATORS)
literals = st.one_of(
    st.integers(-100, 100),
    st.sampled_from(["AI", "NSF", "distributed systems"]),
)


@st.composite
def single_join_queries(draw):
    relation = draw(relation_names)
    column_count = draw(st.integers(1, 3))
    columns = draw(
        st.lists(
            st.sampled_from(COLUMNS), min_size=column_count,
            max_size=column_count, unique=True,
        )
    )
    predicates = tuple(
        TextJoinPredicate(f"{relation}.{column}", draw(st.sampled_from(FIELDS)))
        for column in columns
    )
    selections = tuple(
        TextSelection(term, draw(st.sampled_from(FIELDS)))
        for term in draw(st.lists(st.sampled_from(TERMS), max_size=2, unique=True))
    )
    local = None
    if draw(st.booleans()):
        local = conjoin(
            [
                Comparison(
                    draw(operators),
                    ColumnRef(f"{relation}.{draw(st.sampled_from(COLUMNS))}"),
                    Literal(draw(literals)),
                )
                for _ in range(draw(st.integers(1, 2)))
            ]
        )
    shape = draw(st.sampled_from(list(ResultShape)))
    long_form = shape is ResultShape.PAIRS and draw(st.booleans())
    return TextJoinQuery(
        relation=relation,
        join_predicates=predicates,
        text_selections=selections,
        relation_predicate=local,
        shape=shape,
        long_form=long_form,
    )


@settings(max_examples=80, deadline=None)
@given(query=single_join_queries())
def test_single_join_round_trip(query):
    rendered = render_query(query)
    assert parse_query(rendered) == query


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), long_form=st.booleans())
def test_multi_join_round_trip(seed, long_form):
    import random

    rng = random.Random(seed)
    relations = tuple(rng.sample(RELATIONS, rng.randint(2, 3)))
    text_predicates = tuple(
        TextJoinPredicate(f"{relation}.{rng.choice(COLUMNS)}", rng.choice(FIELDS))
        for relation in rng.sample(relations, rng.randint(1, len(relations)))
    )
    join_predicates = tuple(
        RelationalJoinPredicate(
            Comparison(
                rng.choice(OPERATORS),
                ColumnRef(f"{relations[i]}.dept"),
                ColumnRef(f"{relations[i + 1]}.dept"),
            ),
            (relations[i], relations[i + 1]),
        )
        for i in range(len(relations) - 1)
    )
    query = MultiJoinQuery(
        relations=relations,
        text_predicates=text_predicates,
        text_selections=(TextSelection("may 1993", "year"),),
        join_predicates=join_predicates,
        long_form=long_form,
    )
    rendered = render_query(query, text_source=query.text_source)
    assert parse_query(rendered, text_source=query.text_source) == query


def test_render_rejects_foreign_expressions():
    """The surface syntax is a conjunction of comparisons; a disjunction
    has no rendering."""
    from repro.errors import PlanError
    from repro.relational.expressions import Or

    query = TextJoinQuery(
        relation="student",
        join_predicates=(TextJoinPredicate("student.name", "author"),),
        relation_predicate=Or((
            Comparison("=", ColumnRef("student.name"), Literal("kao")),
            Comparison("=", ColumnRef("student.name"), Literal("pham")),
        )),
    )
    with pytest.raises(PlanError, match="render"):
        render_query(query)
