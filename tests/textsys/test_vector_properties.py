"""Property tests: the vector engine against a brute-force oracle.

The oracle reimplements TF–IDF / cosine ranking from the definitions —
full vocabulary vectors, naive loops — with none of the engine's
posting-list shortcuts.  Hypothesis then drives random corpora and
queries through both and demands identical answers, plus pins for the
edge cases the property sweep first surfaced (duplicate query terms,
empty queries, zero-idf terms, zero-norm documents, and the
negative-threshold corpus dump).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.textsys.analysis import tokenize
from repro.textsys.documents import DocumentStore
from repro.textsys.vector import VectorSpaceEngine
from tests.textsys.vector_reads import ranked_docids, score_of

WORDS = ["alpha", "bravo", "carol", "delta", "echo", "fox"]

documents_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=6),
    min_size=1,
    max_size=8,
)
query_strategy = st.lists(
    st.sampled_from(WORDS + ["zzz"]), min_size=0, max_size=5
)


def build_engine(documents: List[List[str]]) -> VectorSpaceEngine:
    store = DocumentStore(["body"])
    for index, words in enumerate(documents):
        store.add_record(f"d{index:03d}", body=" ".join(words))
    return VectorSpaceEngine(store, "body")


def oracle_scores(
    documents: List[List[str]], terms: Sequence[str]
) -> Dict[str, float]:
    """Cosine similarity per document, straight from the definitions."""
    tokenized = {
        f"d{index:03d}": [
            token for word in words for token in tokenize(word)
        ]
        for index, words in enumerate(documents)
    }
    collection_size = len(documents)
    frequency: Dict[str, int] = {}
    for tokens in tokenized.values():
        for term in set(tokens):
            frequency[term] = frequency.get(term, 0) + 1

    def idf(term: str) -> float:
        observed = frequency.get(term, 0)
        if observed == 0:
            return 0.0
        return math.log((1 + collection_size) / (1 + observed)) + 1.0

    def weight(count: int, term: str) -> float:
        if count <= 0:
            return 0.0
        return (1.0 + math.log(count)) * idf(term)

    query_counts = Counter(
        token for term in terms for token in tokenize(term)
    )
    query_vector = {
        term: weight(count, term) for term, count in query_counts.items()
    }
    query_norm = math.sqrt(sum(v * v for v in query_vector.values()))

    scores: Dict[str, float] = {}
    for docid, tokens in tokenized.items():
        counts = Counter(tokens)
        document_vector = {
            term: weight(count, term) for term, count in counts.items()
        }
        norm = math.sqrt(sum(v * v for v in document_vector.values()))
        dot = sum(
            query_vector[term] * document_vector.get(term, 0.0)
            for term in query_vector
        )
        if query_norm == 0.0 or norm == 0.0 or dot == 0.0:
            scores[docid] = 0.0
        else:
            scores[docid] = dot / (norm * query_norm)
    return scores


def oracle_ranking(
    documents: List[List[str]],
    terms: Sequence[str],
    threshold: float = 0.0,
) -> List[Tuple[str, float]]:
    scores = oracle_scores(documents, terms)
    kept = [(d, s) for d, s in scores.items() if s > threshold]
    kept.sort(key=lambda entry: (-entry[1], entry[0]))
    return kept


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(documents=documents_strategy, terms=query_strategy)
    def test_full_search_matches_oracle(self, documents, terms):
        """Untruncated search returns exactly the oracle's ranking."""
        engine = build_engine(documents)
        expected = oracle_ranking(documents, terms)
        actual = engine.search(terms, top_k=None, threshold=0.0)
        assert [entry.docid for entry in actual] == [d for d, _ in expected]
        for entry, (_, score) in zip(actual, expected):
            assert entry.score == pytest.approx(score, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        documents=documents_strategy,
        terms=query_strategy,
        top_k=st.integers(min_value=1, max_value=10),
    )
    def test_top_k_is_a_prefix_of_the_full_ranking(
        self, documents, terms, top_k
    ):
        engine = build_engine(documents)
        full = engine.search(terms, top_k=None, threshold=0.0)
        truncated = engine.search(terms, top_k=top_k, threshold=0.0)
        assert truncated == full[:top_k]

    @settings(max_examples=60, deadline=None)
    @given(
        documents=documents_strategy,
        terms=query_strategy,
        threshold=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
    )
    def test_threshold_matches_oracle(self, documents, terms, threshold):
        engine = build_engine(documents)
        expected = {d for d, _ in oracle_ranking(documents, terms, threshold)}
        actual = ranked_docids(engine, terms, top_k=None, threshold=threshold)
        assert set(actual) == expected
        assert all(
            entry.score > threshold
            for entry in engine.search(terms, top_k=None, threshold=threshold)
        )

    @settings(max_examples=60, deadline=None)
    @given(documents=documents_strategy, terms=query_strategy)
    def test_corpus_dump_matches_oracle_everywhere(self, documents, terms):
        """threshold < 0: every document comes back with its exact score."""
        engine = build_engine(documents)
        dump = engine.search(terms, top_k=None, threshold=-1.0)
        assert len(dump) == len(documents)
        scores = oracle_scores(documents, terms)
        for entry in dump:
            assert entry.score == pytest.approx(scores[entry.docid], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(documents=documents_strategy, terms=query_strategy)
    def test_postings_count_matches_distinct_token_lists(
        self, documents, terms
    ):
        engine = build_engine(documents)
        outcome = engine.counted_search(terms, top_k=None)
        distinct = {token for term in terms for token in tokenize(term)}
        expected = sum(engine.document_frequency(token) for token in distinct)
        assert outcome.postings_processed == expected


class TestEdgeCasePins:
    """The specific behaviors the property sweep is guarding."""

    def test_duplicate_single_term_scores_identically(self):
        """One distinct token: cosine normalization cancels the tf boost."""
        engine = build_engine([["alpha", "bravo"], ["alpha"], ["bravo"]])
        once = engine.search(["alpha"], top_k=None)
        twice = engine.search(["alpha", "alpha"], top_k=None)
        assert [e.docid for e in once] == [e.docid for e in twice]
        for a, b in zip(once, twice):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_duplicate_terms_boost_relative_weight(self):
        """With two distinct tokens, repetition shifts rank toward the
        repeated one — duplicates accumulate tf, they are not dropped."""
        documents = [["alpha"], ["bravo"], ["carol"]]
        engine = build_engine(documents)
        balanced = engine.search(["alpha", "bravo"], top_k=None)
        boosted = engine.search(["alpha", "alpha", "alpha", "bravo"], top_k=None)
        scores_balanced = {e.docid: e.score for e in balanced}
        scores_boosted = {e.docid: e.score for e in boosted}
        assert scores_balanced["d000"] == pytest.approx(
            scores_balanced["d001"], abs=1e-12
        )
        assert scores_boosted["d000"] > scores_boosted["d001"]

    def test_empty_query_matches_nothing(self):
        engine = build_engine([["alpha"], ["bravo"]])
        assert engine.search([], top_k=None) == []
        assert engine.counted_search([], top_k=None).postings_processed == 0

    def test_empty_query_dump_still_returns_everything(self):
        """The V-SCAN primitive: no terms, negative threshold, all docs."""
        engine = build_engine([["alpha"], ["bravo"], []])
        dump = engine.search([], top_k=None, threshold=-1.0)
        assert [e.docid for e in dump] == ["d000", "d001", "d002"]
        assert all(e.score == 0.0 for e in dump)

    def test_zero_idf_terms_contribute_nothing(self):
        """A term in no document has idf 0 and changes no score."""
        documents = [["alpha", "bravo"], ["alpha"]]
        engine = build_engine(documents)
        without = engine.search(["alpha"], top_k=None)
        with_unknown = engine.search(["alpha", "zzz"], top_k=None)
        assert [e.docid for e in without] == [e.docid for e in with_unknown]
        for a, b in zip(without, with_unknown):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_zero_norm_documents_never_rank_above_threshold(self):
        """An empty document can never score, even for an empty-ish query."""
        engine = build_engine([["alpha"], []])
        assert ranked_docids(engine, ["alpha"], top_k=None) == ["d000"]
        assert score_of(engine, "d001", ["alpha"]) == 0.0

    def test_negative_threshold_regression_includes_zero_score_documents(self):
        """Regression for the corpus-dump bug: candidates were drawn from
        the query tokens' posting lists only, so documents with no query
        term (score 0 — still `> -1.0`) were silently dropped."""
        documents = [["alpha"], ["bravo"], []]
        engine = build_engine(documents)
        dump = engine.search(["alpha"], top_k=None, threshold=-1.0)
        docids = [entry.docid for entry in dump]
        # All three documents — including 'bravo'-only and the empty one.
        assert set(docids) == {"d000", "d001", "d002"}
        # The posting-list shortcut would have returned just this one:
        assert ranked_docids(engine, ["alpha"], top_k=None) == ["d000"]

    def test_ties_break_by_docid(self):
        documents = [["alpha"], ["alpha"], ["alpha"]]
        engine = build_engine(documents)
        results = engine.search(["alpha"], top_k=None)
        assert [e.docid for e in results] == ["d000", "d001", "d002"]
        assert len({e.score for e in results}) == 1
