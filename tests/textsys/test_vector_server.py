"""The served vector backend: API surface, counters, sharding identity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchLimitExceeded, TextSystemError
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.sharding import merge_scored_results, partition_store
from repro.textsys.vector import VectorQuery, VectorSpaceEngine, VectorStatistics
from repro.textsys.vectorserver import VectorTextServer, build_vector_shard_servers
from tests.textsys.vector_reads import score_of


@pytest.fixture
def store() -> DocumentStore:
    store = DocumentStore(
        ["title", "abstract"], short_fields=["title", "abstract"]
    )
    store.add_record("d1", title="belief update", abstract="belief revision systems")
    store.add_record("d2", title="query optimization", abstract="join query plans")
    store.add_record("d3", title="text retrieval", abstract="ranked text search")
    store.add_record("d4", title="belief networks", abstract="probabilistic belief")
    store.add_record("d5", title="empty abstract", abstract="")
    return store


@pytest.fixture
def server(store) -> VectorTextServer:
    return VectorTextServer(store, "abstract")


class TestSurface:
    def test_source_kind_is_vector(self, server):
        assert server.source_kind == "vector"
        assert BooleanTextServer(server.store).source_kind == "boolean"

    def test_search_returns_scored_short_forms(self, server):
        result = server.search(VectorQuery("abstract", ("belief",), top_k=3))
        # d4's two-token abstract has the smaller norm, so it ranks first.
        assert result.docids == ("d4", "d1")
        assert len(result.scores) == 2
        assert result.scores[0] >= result.scores[1] > 0.0
        assert all(
            set(document.fields) <= {"title", "abstract"}
            for document in result.documents
        )

    def test_search_matches_engine_exactly(self, server):
        query = VectorQuery("abstract", ("belief", "query"), top_k=None)
        result = server.search(query)
        scored = server.engine.search(query.terms, top_k=None)
        assert result.docids == tuple(entry.docid for entry in scored)
        assert result.scores == tuple(entry.score for entry in scored)

    def test_rejects_non_vector_queries(self, server):
        with pytest.raises(TextSystemError, match="VectorQuery"):
            server.search("AB='belief'")

    def test_rejects_wrong_field(self, server):
        with pytest.raises(TextSystemError, match="ranks field"):
            server.search(VectorQuery("title", ("belief",)))
        with pytest.raises(TextSystemError, match="ranks field"):
            server.document_frequency("title", "belief")

    def test_term_limit_enforced(self, store):
        server = VectorTextServer(store, "abstract", term_limit=2)
        server.search(VectorQuery("abstract", ("belief", "query")))
        with pytest.raises(SearchLimitExceeded):
            server.search(VectorQuery("abstract", ("a", "b", "c")))

    def test_validation(self, store):
        with pytest.raises(TextSystemError):
            VectorTextServer(store, "abstract", term_limit=0)
        with pytest.raises(TextSystemError):
            VectorTextServer(store, "nope")

    def test_retrieve_returns_long_form(self, server):
        document = server.retrieve("d1")
        assert document.field("abstract") == "belief revision systems"
        assert [d.docid for d in server.retrieve_many(["d2", "d1"])] == [
            "d2", "d1"
        ]


class TestCounters:
    def test_search_counts_postings_and_results(self, server):
        before = server.counters.snapshot()
        result = server.search(VectorQuery("abstract", ("belief",), top_k=None))
        delta = server.counters.snapshot() - before
        assert delta.searches == 1
        assert delta.postings_processed == result.postings_processed == 2
        assert delta.short_documents == len(result.docids)

    def test_retrieve_counts(self, server):
        before = server.counters.snapshot()
        server.retrieve_many(["d1", "d2", "d3"])
        delta = server.counters.snapshot() - before
        assert delta.long_documents == 3

    def test_corpus_dump_counts_zero_postings(self, server):
        before = server.counters.snapshot()
        result = server.search(
            VectorQuery("abstract", (), top_k=None, threshold=-1.0)
        )
        delta = server.counters.snapshot() - before
        assert delta.postings_processed == 0
        assert delta.short_documents == len(result.docids) == 5


class TestEngineFreshness:
    def test_engine_rebuilds_after_store_mutation(self, server):
        assert server.search(
            VectorQuery("abstract", ("zeppelin",), top_k=None)
        ).docids == ()
        server.store.add_record(
            "d6", title="new", abstract="zeppelin flight"
        )
        result = server.search(
            VectorQuery("abstract", ("zeppelin",), top_k=None)
        )
        assert result.docids == ("d6",)

    def test_data_version_tracks_store(self, server):
        version = server.data_version
        server.store.add_record("d7", title="x", abstract="y")
        assert server.data_version == version + 1
        assert server.data_fingerprint == (server.store.uid, server.data_version)


class TestShardingIdentity:
    def test_shard_servers_score_with_global_statistics(self, store):
        reference = VectorTextServer(store, "abstract")
        corpus = partition_store(store, 2)
        shards = build_vector_shard_servers(corpus, "abstract")
        query = VectorQuery("abstract", ("belief", "text"), top_k=None)
        expected = {
            docid: score
            for docid, score in zip(
                reference.search(query).docids,
                reference.search(query).scores,
            )
        }
        for shard in shards:
            result = shard.search(query)
            for docid, score in zip(result.docids, result.scores):
                assert score == expected[docid]  # bit-identical, not approx

    def test_merged_shards_reproduce_the_single_server(self, store):
        reference = VectorTextServer(store, "abstract")
        corpus = partition_store(store, 3)
        shards = build_vector_shard_servers(corpus, "abstract")
        for top_k in (1, 2, None):
            query = VectorQuery("abstract", ("belief",), top_k=top_k)
            merged = merge_scored_results(
                [shard.search(query) for shard in shards], top_k
            )
            single = reference.search(query)
            assert merged.docids == single.docids
            assert merged.scores == single.scores
            assert merged.postings_processed == single.postings_processed

    def test_local_document_frequencies_sum_across_shards(self, store):
        reference = VectorTextServer(store, "abstract")
        corpus = partition_store(store, 2)
        shards = build_vector_shard_servers(corpus, "abstract")
        for term in ("belief", "query", "text", "zzz"):
            assert reference.document_frequency("abstract", term) == sum(
                shard.document_frequency("abstract", term) for shard in shards
            )

    @settings(max_examples=30, deadline=None)
    @given(
        terms=st.lists(
            st.sampled_from(["belief", "query", "text", "systems", "zzz"]),
            min_size=1,
            max_size=3,
        ),
        top_k=st.sampled_from([1, 2, 5, None]),
        shard_count=st.integers(min_value=1, max_value=4),
    )
    def test_scored_merge_identity_property(self, terms, top_k, shard_count):
        store = DocumentStore(["abstract"], short_fields=["abstract"])
        store.add_record("d1", abstract="belief revision systems")
        store.add_record("d2", abstract="join query plans")
        store.add_record("d3", abstract="ranked text search systems")
        store.add_record("d4", abstract="probabilistic belief")
        store.add_record("d5", abstract="")
        reference = VectorTextServer(store, "abstract")
        shards = build_vector_shard_servers(
            partition_store(store, shard_count), "abstract"
        )
        query = VectorQuery("abstract", tuple(terms), top_k=top_k)
        merged = merge_scored_results(
            [shard.search(query) for shard in shards], top_k
        )
        single = reference.search(query)
        assert merged.docids == single.docids
        assert merged.scores == single.scores

    def test_injected_statistics_override_local_idf(self, store):
        """A one-document shard still scores with the global N and df."""
        shard_store = DocumentStore(["abstract"], short_fields=["abstract"])
        shard_store.add_record("d1", abstract="belief revision systems")
        statistics = VectorStatistics.for_store(store, "abstract")
        shard_engine = VectorSpaceEngine(
            shard_store, "abstract", statistics=statistics
        )
        global_engine = VectorSpaceEngine(store, "abstract")
        assert score_of(shard_engine, "d1", ["belief"]) == score_of(
            global_engine, "d1", ["belief"]
        )
        local_only = VectorSpaceEngine(shard_store, "abstract")
        assert score_of(shard_engine, "d1", ["belief"]) != score_of(
            local_only, "d1", ["belief"]
        )
