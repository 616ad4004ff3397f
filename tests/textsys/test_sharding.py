"""Corpus partitioning and the shard-merge invariants.

Includes the shard-count invariance property: over 1/2/4 shards, a
metered client sees identical docids and *bit-identical* ledger totals,
because docids partition (ordering restored by global ordinal) and
postings partition (``postings_processed`` sums exactly).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TextSystemError, UnknownDocumentError
from repro.gateway.client import TextClient
from repro.remote.router import build_sharded_transport
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.sharding import (
    build_shard_servers,
    hash_shard_of,
    partition_store,
)


class TestPartitioning:
    def test_shards_are_disjoint_and_cover_the_corpus(self, tiny_store):
        corpus = partition_store(tiny_store, 3)
        shard_docids = [{d.docid for d in store} for store in corpus.stores]
        union = set().union(*shard_docids)
        assert union == {"d1", "d2", "d3", "d4"}
        assert sum(len(ids) for ids in shard_docids) == len(union)  # disjoint
        for docid in union:
            assert docid in {d.docid for d in corpus.stores[corpus.shard_of(docid)]}

    def test_hash_assignment_is_stable(self, tiny_store):
        first = partition_store(tiny_store, 4).assignments
        second = partition_store(tiny_store, 4).assignments
        assert first == second
        for docid, shard in first.items():
            assert shard == hash_shard_of(docid, 4)
        # Placement survives corpus growth: existing docids keep their
        # shard when the store is re-partitioned after additions.
        tiny_store.add_record(
            "d9", title="new", author="x", abstract="y", year="1999"
        )
        grown = partition_store(tiny_store, 4).assignments
        assert all(grown[docid] == shard for docid, shard in first.items())

    def test_relative_order_preserved_within_shards(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        for store in corpus.stores:
            ordinals = [corpus.global_order[d.docid] for d in store]
            assert ordinals == sorted(ordinals)

    def test_shard_stores_do_not_alias_source_documents(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        source_doc = tiny_store.get("d1")
        source_doc.fields["title"] = "mutated"
        shard_doc = corpus.stores[corpus.shard_of("d1")].get("d1")
        assert shard_doc.fields["title"] != "mutated"

    def test_validation(self, tiny_store):
        with pytest.raises(TextSystemError):
            partition_store(tiny_store, 0)

    def test_shard_of_unknown_docid_raises(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        with pytest.raises(UnknownDocumentError):
            corpus.shard_of("nope")


class TestMerge:
    def _merged_search(self, corpus, servers, expression):
        return corpus.merge_results(
            [server.search(expression) for server in servers]
        )

    @pytest.mark.parametrize("expression", ["TI='belief'", "TI='systems'"])
    def test_merge_restores_single_server_answer(
        self, tiny_store, tiny_server, expression
    ):
        corpus = partition_store(tiny_store, 3)
        servers = build_shard_servers(corpus)
        merged = self._merged_search(corpus, servers, expression)
        local = tiny_server.search(expression)
        assert merged.docids == local.docids
        assert merged.postings_processed == local.postings_processed

    def test_documents_added_after_the_snapshot_sort_behind(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        servers = build_shard_servers(corpus)
        corpus.stores[0].add_record(
            "d9",
            title="belief afterthought",
            author="late",
            abstract="late",
            year="1999",
        )
        servers[0].index.rebuild()
        merged = self._merged_search(corpus, servers, "TI='belief'")
        assert merged.docids[-1] == "d9"
        assert merged.docids[:-1] == ("d1", "d3")


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]

documents = st.lists(
    st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)

expressions = st.one_of(
    st.sampled_from([f"TI='{word}'" for word in WORDS]),
    st.sampled_from([f"AB='{word}'" for word in WORDS]),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(
        lambda pair: f"TI='{pair[0]}' or AB='{pair[1]}'"
    ),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(
        lambda pair: f"AB='{pair[0]}' and not TI='{pair[1]}'"
    ),
)


class TestShardCountInvariance:
    """Satellite 5: docids and metered costs are shard-count invariant."""

    @settings(max_examples=25, deadline=None)
    @given(docs=documents, expression=expressions)
    def test_identical_docids_and_ledger_totals_over_1_2_4_shards(
        self, docs, expression
    ):
        store = DocumentStore(["title", "abstract"], short_fields=["title"])
        for number, (title, abstract) in enumerate(docs):
            store.add_record(
                f"doc{number}", title=" ".join(title), abstract=" ".join(abstract)
            )

        baseline = TextClient(BooleanTextServer(store))
        expected = baseline.search(expression)
        baseline.retrieve_many(expected.docids)

        for shards in (1, 2, 4):
            transport = build_sharded_transport(
                store, shards, profile="lan", time_scale=0.0, pool_size=1
            )
            client = TextClient(transport)
            result = client.search(expression)
            assert result.docids == expected.docids
            assert result.postings_processed == expected.postings_processed
            client.retrieve_many(result.docids)
            assert client.ledger.total == baseline.ledger.total
            transport.close()
