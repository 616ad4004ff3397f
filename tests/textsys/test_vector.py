"""Tests for the vector-space engine and the Section 8 negative result."""

import pytest

from repro.errors import TextSystemError, UnknownFieldError
from repro.textsys.documents import DocumentStore
from repro.textsys.vector import VectorSpaceEngine
from tests.textsys.vector_reads import ranked_docids, score_of


@pytest.fixture
def engine():
    store = DocumentStore(["body"])
    store.add_record("rare", body="zeppelin zeppelin zeppelin")
    store.add_record("mixed", body="zeppelin database systems")
    store.add_record("common1", body="database systems design")
    store.add_record("common2", body="database systems implementation")
    store.add_record("empty", body="")
    return VectorSpaceEngine(store, "body")


class TestRanking:
    def test_exact_topic_ranks_first(self, engine):
        results = engine.search(["zeppelin"])
        assert results[0].docid == "rare"
        assert {entry.docid for entry in results} == {"rare", "mixed"}

    def test_scores_sorted_descending(self, engine):
        results = engine.search(["database", "systems"])
        scores = [entry.score for entry in results]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_truncates(self, engine):
        assert len(engine.search(["database"], top_k=1)) == 1

    def test_threshold_filters(self, engine):
        everything = engine.search(["database"], threshold=0.0)
        strict = engine.search(["database"], threshold=0.99)
        assert len(strict) <= len(everything)

    def test_unknown_terms_match_nothing(self, engine):
        assert engine.search(["xylophone"]) == []

    def test_score_of_unrelated_document_is_zero(self, engine):
        assert score_of(engine, "rare", ["database"]) == 0.0

    def test_idf_favors_rare_terms(self, engine):
        """'zeppelin' (2 docs) outweighs 'database' (3 docs) in 'mixed'."""
        assert score_of(engine, "mixed", ["zeppelin"]) > score_of(
            engine, "mixed", ["database"]
        )

    def test_validation(self, engine):
        with pytest.raises(TextSystemError):
            engine.search(["a"], top_k=0)
        with pytest.raises(UnknownFieldError):
            VectorSpaceEngine(engine.store, "nope")


class TestSection8NegativeResult:
    """The paper's reason for excluding vector-space systems, made concrete:
    query results are not monotone in the term set, so probe-based
    pruning is unsound."""

    def test_adding_a_term_can_add_answers(self, engine):
        """'Adding predicates in a query … may result in more answers.'"""
        narrow = set(ranked_docids(engine, ["zeppelin"]))
        wide = set(ranked_docids(engine, ["zeppelin", "design"]))
        added = wide - narrow
        assert added, "the wider query must surface new documents"
        assert "common1" in added  # matches only the added term

    def test_probe_pruning_would_be_unsound(self, engine):
        """A failed 'probe' on a term subset does NOT imply the full query
        fails — the Boolean implication probing relies on (Q_P(t) unsat
        => Q(t) unsat) is simply false here."""
        probe_terms = ["xylophone"]  # matches nothing at all
        full_terms = ["xylophone", "database"]
        assert ranked_docids(engine, probe_terms) == []
        assert ranked_docids(engine, full_terms) != []

    def test_boolean_model_is_monotone_for_contrast(self, engine):
        """The same construction on the Boolean server: adding a conjunct
        can only shrink the result — the monotonicity probing needs."""
        from repro.textsys.query import AndQuery, TermQuery
        from repro.textsys.server import BooleanTextServer

        server = BooleanTextServer(engine.store)
        narrow = set(server.search(TermQuery("body", "zeppelin")).docids)
        wide = set(
            server.search(
                AndQuery(
                    (TermQuery("body", "zeppelin"), TermQuery("body", "design"))
                )
            ).docids
        )
        assert wide <= narrow
