"""Unit + property tests for TextMatch (local text-predicate semantics).

The key invariant: ``value_matches_field`` must agree exactly with the
text server's evaluation of the corresponding instantiated search term
(``data_term``) — otherwise locally-evaluated predicates (RTP, deferred
text matches) would diverge from server-evaluated ones.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.textmatch import TextMatch, value_matches_field
from repro.errors import SearchSyntaxError, TypeMismatchError
from repro.relational.expressions import ColumnRef
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document
from repro.textsys.engine import matches_document
from repro.textsys.query import data_term

SCHEMA = Schema.of(
    ("s.value", DataType.VARCHAR),
    ("d.field", DataType.VARCHAR),
)


def row(value, field_text):
    return Row(SCHEMA, [value, field_text])


EXPR = TextMatch(ColumnRef("s.value"), ColumnRef("d.field"))


class TestValueMatchesField:
    def test_single_word(self):
        assert value_matches_field("belief", "a belief operator")
        assert not value_matches_field("belief", "beliefs operator")

    def test_phrase_adjacency(self):
        assert value_matches_field("belief update", "the belief update op")
        assert not value_matches_field("belief update", "belief about update")

    def test_case_and_punctuation_insensitive(self):
        assert value_matches_field("Belief-Update", "belief, update!")

    def test_empty_value_never_matches(self):
        assert not value_matches_field("???", "anything")
        assert not value_matches_field("", "anything")


class TestExpression:
    def test_true_false(self):
        assert EXPR.evaluate(row("belief", "belief update")) is True
        assert EXPR.evaluate(row("zzz", "belief update")) is False

    def test_null_unknown(self):
        assert EXPR.evaluate(row(None, "x")) is None
        assert EXPR.evaluate(row("x", None)) is None

    def test_non_string_rejected(self):
        """The *field* side must be text."""
        schema = Schema.of(("s.value", DataType.VARCHAR), ("d.field", DataType.INTEGER))
        with pytest.raises(TypeMismatchError):
            TextMatch(ColumnRef("s.value"), ColumnRef("d.field")).evaluate(
                Row(schema, ["x", 1])
            )

    def test_integer_value_matches_its_digits(self):
        """The *value* side is matched as ``str(value)``, as the join
        methods instantiate it (``instantiate_predicates``, ``rtp_match_pairs``)."""
        schema = Schema.of(("s.value", DataType.INTEGER), ("d.field", DataType.VARCHAR))
        expression = TextMatch(ColumnRef("s.value"), ColumnRef("d.field"))
        assert expression.evaluate(Row(schema, [1993, "may 1993"])) is True
        assert expression.evaluate(Row(schema, [1850, "may 1993"])) is False
        assert expression.evaluate(Row(schema, [None, "may 1993"])) is None


words = st.sampled_from(["alpha", "beta", "gamma", "delta"])
texts = st.lists(words, max_size=8).map(" ".join)
values = st.lists(words, min_size=1, max_size=3).map(" ".join)


@given(value=values, field_text=texts)
def test_agrees_with_server_side_term_semantics(value, field_text):
    """value_matches_field(value, t) == matches_document(data_term(value))."""
    document = Document("d", {"f": field_text})
    try:
        node = data_term("f", value)
    except SearchSyntaxError:
        assert not value_matches_field(value, field_text)
        return
    assert value_matches_field(value, field_text) == matches_document(document, node)
