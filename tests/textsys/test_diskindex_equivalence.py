"""DESIGN invariant 13: the disk-backed index is charge-identical.

Swapping :class:`InvertedIndex` for a :class:`DiskInvertedIndex` built
from the same store must change *nothing observable* in the cost model:
same docids, same ``postings_processed``, same charged ``pages_read``,
same server counters, same priced ledger totals — in both engine modes,
at any shard count, and regardless of block size, cache budget, or I/O
mode.  Only the physical I/O counters (``io_stats``) may differ, and
they are never a cost-model input.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.gateway.client import TextClient
from repro.textsys.diskindex import DiskInvertedIndex, build_disk_index
from repro.textsys.documents import Document
from repro.textsys.engine import evaluate
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.server import BooleanTextServer
from repro.textsys.sharding import build_shard_servers, partition_store

from tests.textsys.test_engine_equivalence import (
    WORDS,
    random_query,
    random_store,
)


def run_engine(index, query, mode):
    """(docids, postings charged, pages charged) on a fresh index."""
    outcome = evaluate(index, query, mode=mode)
    docids = [index.docid_of(doc) for doc in outcome.postings.doc_array]
    return docids, outcome.postings_processed, index.pages_read


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_disk_engine_is_charge_identical(seed, tmp_path_factory):
    """Engine-level identity over random corpora, queries, and disk-index
    physical parameters (block size, spill threshold, cache, I/O mode).

    One document's body runs past 128 words, so the phrase and
    proximity queries also read positions stored as two-byte varints."""
    rng = random.Random(seed)
    store = random_store(rng, rng.randint(1, 18))
    long_body = " ".join(rng.choices(WORDS, k=rng.randint(140, 200)))
    store.add(Document("long", {"title": "", "body": long_body}))
    path = tmp_path_factory.mktemp("inv13") / f"s{seed}.idx"
    build_disk_index(
        store,
        store.field_names,
        path,
        block_size=rng.choice([1, 2, 4, 128]),
        spill_postings=rng.choice([None, 5]),
    )
    for _ in range(3):
        query = random_query(rng)
        expression = query.to_expression()
        for mode in ("reference", "optimized"):
            expected = run_engine(InvertedIndex(store), query, mode)
            with DiskInvertedIndex(
                path,
                io_mode=rng.choice(["mmap", "read"]),
                cache_budget=rng.choice([0, None, 1 << 20]),
            ) as disk:
                actual = run_engine(disk, query, mode)
            assert actual == expected, (expression, mode)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_server_accounting_identical_memory_vs_disk(seed, tmp_path_factory):
    """Full-stack identity: a metered client sees the same result sets,
    server counters, and priced ledger totals whichever index backs the
    server — and a shard fleet served from per-shard index files keeps
    the shard-sum invariants of DESIGN inv. 10."""
    rng = random.Random(seed)
    store = random_store(rng, rng.randint(2, 16))
    queries = [random_query(rng, depth=2) for _ in range(3)]
    tmp = tmp_path_factory.mktemp("inv13srv")

    def observe(server):
        client = TextClient(server)
        answers = [client.search(query) for query in queries]
        return (
            [result.docids for result in answers],
            server.counters.as_dict(),
            client.ledger.total,
        )

    observed = None
    for mode in ("reference", "optimized"):
        memory = observe(BooleanTextServer(store, engine_mode=mode))
        index_path = build_disk_index(
            store, store.field_names, tmp / f"{mode}.idx"
        )
        with DiskInvertedIndex(index_path) as disk_index:
            disk = observe(
                BooleanTextServer(store, engine_mode=mode, index=disk_index)
            )
        assert disk == memory, mode
        observed = memory

    expected_docids, expected_counters, _ = observed
    for shards in (1, 2):

        def index_factory(shard_id, shard_store):
            path = build_disk_index(
                shard_store,
                shard_store.field_names,
                tmp / f"shard{shards}_{shard_id}.idx",
            )
            return DiskInvertedIndex(path)

        corpus = partition_store(store, shards)
        servers = build_shard_servers(corpus, index_factory=index_factory)
        merged_docids = []
        for query in queries:
            partials = [server.search(query) for server in servers]
            merged_docids.append(corpus.merge_results(partials).docids)
        assert merged_docids == expected_docids
        summed = {
            key: sum(server.counters.as_dict()[key] for server in servers)
            for key in expected_counters
        }
        assert summed["postings_processed"] == expected_counters[
            "postings_processed"
        ]
        assert summed["short_documents"] == expected_counters["short_documents"]
        assert summed["long_documents"] == expected_counters["long_documents"]
        assert summed["searches"] == shards * expected_counters["searches"]
