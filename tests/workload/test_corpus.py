"""Unit tests for the synthetic corpus generator (exact planted stats)."""

import random

import pytest

from repro.errors import WorkloadError
from repro.gateway.client import TextClient
from repro.gateway.sampling import exact_predicate_statistics
from repro.textsys.server import BooleanTextServer
from repro.workload.corpus import SyntheticCorpus
from repro.workload.vocabulary import reserved_pool


@pytest.fixture
def corpus():
    return SyntheticCorpus(200, seed=5)


class TestBackground:
    def test_document_count(self, corpus):
        store = corpus.build_store()
        assert len(store) == 200

    def test_fields_populated(self, corpus):
        store = corpus.build_store()
        document = store.get("doc00000")
        assert document.field("title")
        assert document.field("abstract")
        assert document.field("year")

    def test_author_field_empty_until_planted(self, corpus):
        store = corpus.build_store()
        assert all(not d.field("author") for d in store)

    def test_deterministic_per_seed(self):
        a = SyntheticCorpus(50, seed=9).build_store()
        b = SyntheticCorpus(50, seed=9).build_store()
        for docid in a.docids():
            assert a.get(docid).fields == b.get(docid).fields

    def test_invalid_document_count(self):
        with pytest.raises(WorkloadError):
            SyntheticCorpus(0)


class TestPlantPool:
    def test_exact_selectivity_and_fanout(self, corpus):
        rng = random.Random(1)
        pool = reserved_pool("tst", 20, rng)
        report = corpus.plant_pool(
            pool, "author", selectivity=0.5, conditional_fanout=3
        )
        assert report.selectivity == pytest.approx(0.5)
        assert report.fanout == pytest.approx(0.5 * 3)
        # Verify against the actual index.
        server = BooleanTextServer(corpus.build_store())
        stats = exact_predicate_statistics(TextClient(server), "c", "author", pool)
        assert stats.selectivity == pytest.approx(0.5)
        assert stats.fanout == pytest.approx(1.5)

    def test_matched_values_override(self, corpus):
        pool = ["aaa1", "bbb2", "ccc3"]
        report = corpus.plant_pool(
            pool, "author", selectivity=0.0, conditional_fanout=2,
            matched_values=["bbb2"],
        )
        assert report.matched_values == ("bbb2",)

    def test_matched_values_must_be_in_pool(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.plant_pool(
                ["a1"], "author", 1.0, 1, matched_values=["zz"]
            )

    def test_within_restricts_documents(self, corpus):
        universe = [0, 1, 2]
        report = corpus.plant_pool(
            ["val9"], "author", 1.0, 2, within=universe
        )
        for docs in report.documents_per_value.values():
            assert set(docs) <= set(universe)

    def test_fanout_exceeding_universe_rejected(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.plant_pool(["v1"], "author", 1.0, 5, within=[0, 1])

    def test_invalid_selectivity(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.plant_pool(["v1"], "author", 1.5, 1)

    def test_unknown_field(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.plant_pool(["v1"], "nope", 0.5, 1)


class TestPlantPhrase:
    def test_exact_document_frequency(self, corpus):
        corpus.plant_phrase("belief update", "title", 7)
        server = BooleanTextServer(corpus.build_store())
        result = server.search("TI='belief update'")
        assert len(result) == 7

    def test_returns_chosen_documents(self, corpus):
        docs = corpus.plant_phrase("special marker", "title", 3)
        assert len(docs) == 3
        store = corpus.build_store()
        for doc in docs:
            assert "special marker" in store.get(f"doc{doc:05d}").field("title")

    def test_too_many_rejected(self, corpus):
        with pytest.raises(WorkloadError):
            corpus.plant_phrase("x", "title", 1000)


def test_pad_authors_fills_field(corpus):
    corpus.pad_authors(per_document=2, pool_size=10)
    store = corpus.build_store()
    assert all(d.field("author") for d in store)


def test_short_fields_default_excludes_abstract(corpus):
    store = corpus.build_store()
    assert "abstract" not in store.short_fields
    assert "title" in store.short_fields
