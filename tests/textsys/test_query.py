"""Unit tests for the Boolean search AST (term counting, construction)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchSyntaxError
from repro.textsys.analysis import normalize_term, tokenize
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    TermQuery,
    TruncatedQuery,
    and_all,
    data_term,
    make_term,
    or_all,
)


class TestBasicTerms:
    def test_term_requires_normalized_single_word(self):
        TermQuery("title", "belief")
        with pytest.raises(SearchSyntaxError):
            TermQuery("title", "Belief")
        with pytest.raises(SearchSyntaxError):
            TermQuery("title", "two words")
        with pytest.raises(SearchSyntaxError):
            TermQuery("title", "")

    def test_phrase_requires_two_words(self):
        PhraseQuery("title", ("belief", "update"))
        with pytest.raises(SearchSyntaxError):
            PhraseQuery("title", ("belief",))

    def test_truncated(self):
        node = TruncatedQuery("title", "filter")
        assert node.to_expression() == "title='filter?'"

    def test_proximity_validation(self):
        ProximityQuery("abstract", "information", "filtering", 10)
        with pytest.raises(SearchSyntaxError):
            ProximityQuery("abstract", "information", "filtering", 0)


class TestTermCounts:
    """term_count drives the per-search limit M (Section 3.2)."""

    def test_basic_terms_count_one(self):
        assert TermQuery("t", "a").term_count() == 1
        assert PhraseQuery("t", ("a", "b")).term_count() == 1
        assert TruncatedQuery("t", "a").term_count() == 1

    def test_proximity_counts_two(self):
        assert ProximityQuery("t", "a", "b", 3).term_count() == 2

    def test_connectives_sum(self):
        node = AndQuery(
            (
                TermQuery("t", "a"),
                OrQuery((TermQuery("t", "b"), TermQuery("t", "c"))),
                NotQuery(TermQuery("t", "d")),
            )
        )
        assert node.term_count() == 4


class TestMakeTerm:
    def test_single_word(self):
        assert isinstance(make_term("t", "Belief"), TermQuery)

    def test_phrase(self):
        node = make_term("t", "Belief Update")
        assert isinstance(node, PhraseQuery)
        assert node.words == ("belief", "update")

    def test_truncation_syntax(self):
        node = make_term("t", "filter?")
        assert isinstance(node, TruncatedQuery)
        assert node.prefix == "filter"

    def test_empty_rejected(self):
        with pytest.raises(SearchSyntaxError):
            make_term("t", "!!!")


class TestDataTerm:
    def test_no_truncation_interpretation(self):
        """A data value ending in '?' is NOT a truncated search."""
        node = data_term("t", "filter?")
        assert isinstance(node, TermQuery)
        assert node.term == "filter"

    def test_phrase_value(self):
        assert isinstance(data_term("t", "belief update"), PhraseQuery)

    def test_unindexable_rejected(self):
        with pytest.raises(SearchSyntaxError):
            data_term("t", "???")


class TestCombinators:
    def test_and_all_flattens(self):
        a, b, c = (TermQuery("t", w) for w in ("a", "b", "c"))
        node = and_all([AndQuery((a, b)), c])
        assert isinstance(node, AndQuery)
        assert len(node.operands) == 3

    def test_or_all_flattens(self):
        a, b, c = (TermQuery("t", w) for w in ("a", "b", "c"))
        node = or_all([OrQuery((a, b)), c])
        assert len(node.operands) == 3

    def test_singletons_unwrapped(self):
        a = TermQuery("t", "a")
        assert and_all([a]) is a
        assert or_all([a]) is a

    def test_empty_rejected(self):
        with pytest.raises(SearchSyntaxError):
            and_all([])
        with pytest.raises(SearchSyntaxError):
            or_all([])

    def test_operator_overloads(self):
        a, b = TermQuery("t", "a"), TermQuery("t", "b")
        assert isinstance(a & b, AndQuery)
        assert isinstance(a | b, OrQuery)
        assert isinstance(~a, NotQuery)


class TestToExpression:
    def test_round_trippable_rendering(self):
        node = AndQuery(
            (
                PhraseQuery("title", ("belief", "update")),
                OrQuery((TermQuery("author", "smith"), TermQuery("author", "jones"))),
            )
        )
        text = node.to_expression()
        assert "title='belief update'" in text
        assert "author='smith' or author='jones'" in text


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.sampled_from(["belief", "o'brien", "x1", "Belief"])))
def test_one_tokenize_accepts_exactly_what_the_two_step_check_accepted(word):
    """A word is valid iff it tokenizes to itself alone; that single
    tokenize rejects exactly what ``normalize_term`` plus a token count
    rejected."""
    two_step = word != normalize_term(word) or len(tokenize(word)) != 1
    assert (tokenize(word) != [word]) == two_step
    for build in (
        lambda: TermQuery("title", word),
        lambda: PhraseQuery("title", ("belief", word)),
        lambda: ProximityQuery("title", word, "belief", 3),
    ):
        try:
            build()
        except SearchSyntaxError:
            accepted = False
        else:
            accepted = True
        assert accepted is not two_step
