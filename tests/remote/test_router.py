"""The sharded transport: scatter-gather correctness, failover, accounting."""

import pytest

from repro.core.joinmethods import JoinContext, SemiJoinRtp, TupleSubstitution
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import (
    GatewayError,
    SearchLimitExceeded,
    TextSystemError,
    TransportError,
    UnknownDocumentError,
)
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.remote.channel import (
    FAULT_PROFILES,
    FaultInjectingChannel,
    FaultProfile,
    LoopbackChannel,
)
from repro.remote.endpoint import TextServerEndpoint
from repro.remote.resilience import BREAKER_OPEN, RetryPolicy
from repro.remote.router import (
    ShardBackend,
    ShardedTextTransport,
    build_sharded_transport,
)
from repro.remote.transport import RemoteTextTransport
from repro.textsys.parser import parse_search
from repro.textsys.server import BooleanTextServer
from repro.textsys.sharding import partition_store

BELIEF = "TI='belief'"
SYSTEMS = "TI='systems'"
FILTERING = "AB='filtering'"

#: A link that rejects every frame: the primary is down hard.
DEAD = FaultProfile("dead", error_rate=1.0)


def never_sleep(seconds):
    pass


class InlineScatter:
    """Shards at ``time_scale=0``: no shard call can wait, so the router
    runs every scatter in order on the caller's thread.

    Each test class below runs again under :class:`PooledScatter`'s
    rule, so both paths must give the same results, charges, counters,
    failovers and exception types.
    """

    time_scale = 0.0

    def setup_method(self):
        self.opened = []

    def teardown_method(self):
        for transport in self.opened:
            transport.close()

    def sharded(self, source, shards=3, **kwargs):
        kwargs.setdefault("profile", "lan")
        kwargs.setdefault("time_scale", self.time_scale)
        transport = build_sharded_transport(source, shards, **kwargs)
        self.opened.append(transport)
        return transport

    def shard_transport(self, store, profile, **kwargs):
        """One shard server behind a channel that never really sleeps."""
        server = BooleanTextServer(store)
        channel = FaultInjectingChannel(
            TextServerEndpoint(server).handle,
            profile,
            time_scale=self.time_scale,
            sleeper=never_sleep,
        )
        return RemoteTextTransport(server, channel=channel, **kwargs)

    def failover_transport(self, store, shards=2):
        """Every shard: a dead primary plus one healthy replica."""
        corpus = partition_store(store, shards)
        fast_retry = RetryPolicy(max_attempts=2, base_delay=0.001)
        backends = []
        for shard_id, shard_store in enumerate(corpus.stores):
            primary = self.shard_transport(shard_store, DEAD, retry=fast_retry)
            replica = self.shard_transport(shard_store, FAULT_PROFILES["lan"])
            backends.append(ShardBackend(shard_id, primary, [replica]))
        transport = ShardedTextTransport(corpus, backends)
        self.opened.append(transport)
        return transport


class PooledScatter:
    """Shards at ``time_scale=1``: every shard call can wait, so the
    router scatters on its pool."""

    time_scale = 1.0


class TestScatterGather(InlineScatter):
    def test_search_matches_single_server(self, tiny_store, tiny_server):
        transport = self.sharded(tiny_server)
        local = tiny_server.search(BELIEF)
        merged = transport.search(BELIEF)
        assert merged.docids == local.docids
        assert merged.postings_processed == local.postings_processed
        assert [d.fields for d in merged.documents] == [
            d.fields for d in local.documents
        ]

    def test_search_accepts_node_objects(self, tiny_server):
        transport = self.sharded(tiny_server)
        node = parse_search(SYSTEMS)
        assert transport.search(node).docids == tiny_server.search(node).docids

    def test_search_batch_merges_per_position(self, tiny_server):
        transport = self.sharded(tiny_server)
        batch = transport.search_batch([BELIEF, SYSTEMS, FILTERING])
        for result, expression in zip(batch, [BELIEF, SYSTEMS, FILTERING]):
            local = tiny_server.search(expression)
            assert result.docids == local.docids
            assert result.postings_processed == local.postings_processed

    def test_search_batch_validation(self, tiny_server):
        transport = self.sharded(tiny_server, batch_limit=2)
        with pytest.raises(TextSystemError):
            transport.search_batch([])
        with pytest.raises(TextSystemError):
            transport.search_batch([BELIEF, SYSTEMS, FILTERING])
        assert transport.batch_limit == 2

    def test_retrieve_routes_to_the_owning_shard_only(self, tiny_store):
        transport = self.sharded(tiny_store, shards=4)
        document = transport.retrieve("d2")
        assert document.fields["title"] == "Text retrieval systems"
        owner = transport.corpus.shard_of("d2")
        for backend in transport.backends:
            expected = 1 if backend.shard_id == owner else 0
            assert backend.primary.counters.long_documents == expected

    def test_retrieve_many_preserves_order_and_duplicates(self, tiny_store):
        transport = self.sharded(tiny_store, shards=3)
        docids = ["d3", "d1", "d4", "d1", "d2"]
        documents = transport.retrieve_many(docids)
        assert [d.docid for d in documents] == docids
        assert transport.retrieve_many([]) == []

    def test_unknown_docid_is_semantic_not_failover(self, tiny_store):
        transport = self.sharded(tiny_store, shards=2, replicas=1)
        with pytest.raises(UnknownDocumentError):
            transport.retrieve("nope")
        with pytest.raises(UnknownDocumentError):
            transport.retrieve_many(["d1", "nope"])
        assert transport.failovers == 0

    def test_term_limit_is_semantic_not_failover(self, tiny_store):
        transport = self.sharded(tiny_store, shards=3, replicas=1, term_limit=1)
        with pytest.raises(SearchLimitExceeded):
            transport.search(f"{BELIEF} AND {SYSTEMS}")
        assert transport.failovers == 0

    def test_document_frequency_sums_across_shards(self, tiny_server):
        transport = self.sharded(tiny_server, shards=3)
        for field, term in [("title", "belief"), ("abstract", "filtering")]:
            assert transport.document_frequency(
                field, term
            ) == tiny_server.document_frequency(field, term)


class TestMergedView(InlineScatter):
    def test_meta_merges_across_shards(self, tiny_server):
        transport = self.sharded(tiny_server, shards=3)
        assert transport.document_count == 4
        assert transport.term_limit == tiny_server.term_limit
        assert transport.shard_count == 3
        assert transport.replica_count == 0
        version = transport.data_version
        fingerprint = transport.data_fingerprint
        assert len(fingerprint) == 3
        transport.corpus.stores[0].add_record(
            "d9", title="x", author="y", abstract="z", year="1999"
        )
        assert transport.data_version == version + 1
        assert transport.data_fingerprint != fingerprint

    def test_counters_merge_and_diff(self, tiny_server):
        transport = self.sharded(tiny_server, shards=3)
        before = transport.counters.snapshot()
        transport.search(BELIEF)
        transport.retrieve("d1")
        diff = transport.counters - before
        assert diff.searches == 3  # the scatter touched every shard
        assert diff.long_documents == 1
        assert transport.counters.as_dict()["searches"] == 3
        transport.counters.reset()
        assert transport.counters.searches == 0

    def test_backend_count_must_match_shard_count(self, tiny_store):
        corpus = partition_store(tiny_store, 3)
        with pytest.raises(GatewayError):
            ShardedTextTransport(corpus, [])

    def test_replicas_must_be_non_negative(self, tiny_store):
        with pytest.raises(GatewayError):
            build_sharded_transport(tiny_store, 2, replicas=-1)

    def test_report_and_repr(self, tiny_server):
        transport = self.sharded(tiny_server, shards=2, replicas=1)
        transport.search(BELIEF)
        report = transport.report()
        assert report["shards"] == 2
        assert report["replicas_per_shard"] == 1
        assert report["scheme"] == "hash"
        assert len(report["per_shard"]) == 2
        assert report["totals"]["calls"] == transport.stats.calls
        assert "2 shards x 2 servers" in repr(transport)
        transport.close()


class TestClientIntegration(InlineScatter):
    def test_ledger_total_bit_identical_to_single_server(self, tiny_store):

        baseline = TextClient(BooleanTextServer(tiny_store, batch_limit=50))
        sharded = TextClient(self.sharded(tiny_store, shards=4))
        for client in (baseline, sharded):
            first = client.search(BELIEF)
            client.retrieve_many(first.docids)
            client.search_batch([SYSTEMS, FILTERING])
            client.retrieve("d2")
        assert sharded.ledger.total == baseline.ledger.total
        assert sharded.ledger.searches == baseline.ledger.searches
        assert sharded.ledger.long_documents == baseline.ledger.long_documents

    def test_cache_invalidates_when_one_shard_mutates(self, tiny_store):
        transport = self.sharded(tiny_store, shards=2)
        client = TextClient(transport, cache=GatewayCache())
        client.search(BELIEF)
        client.search(BELIEF)
        assert client.cache.hits == 1
        shard = transport.corpus.shard_of("d1")
        transport.corpus.stores[shard].add_record(
            "d9",
            title="Belief propagation",
            author="pearl",
            abstract="belief networks",
            year="1988",
        )
        for backend in transport.backends:
            backend.primary._server.index.rebuild()
        result = client.search(BELIEF)
        assert "d9" in {document.docid for document in result}
        assert client.cache.search.stats.invalidations == 1


class TestFailover(InlineScatter):
    def test_replica_serves_when_the_primary_is_dead(self, tiny_store, tiny_server):
        transport = self.failover_transport(tiny_store)
        merged = transport.search(BELIEF)
        assert merged.docids == tiny_server.search(BELIEF).docids
        assert transport.failovers == len(transport.backends)
        waste, events = transport.drain_accounting()
        assert waste > 0  # the dead primary's retries were charged
        kinds = {event.kind for event in events}
        assert "failover" in kinds
        # Draining cleared the router's pending events.
        assert transport.drain_accounting()[1] == []

    def test_join_methods_run_over_dead_primaries(
        self, tiny_store, tiny_catalog, tiny_context
    ):
        """Regression: ``source_kind``/``batch_limit`` read the dead
        primary directly, so ``check_applicable`` died with a
        ``TransportError`` although every search failed over."""
        query = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("belief update", "title"),),
        )
        for method in (TupleSubstitution(), SemiJoinRtp()):
            transport = self.failover_transport(tiny_store)
            context = JoinContext(tiny_catalog, TextClient(transport))
            remote = method.execute(query, context)
            local = method.execute(query, tiny_context)
            assert remote.result_keys() == local.result_keys()
            assert remote.cost.total == local.cost.total
            assert transport.failovers >= len(transport.backends)

    def test_retrievals_fail_over_too(self, tiny_store):
        transport = self.failover_transport(tiny_store)
        documents = transport.retrieve_many(["d1", "d2", "d3", "d4"])
        assert [d.docid for d in documents] == ["d1", "d2", "d3", "d4"]
        assert all(backend.failovers >= 1 for backend in transport.backends)

    def test_open_breaker_fails_over_without_wire_calls(self, tiny_store):
        transport = self.failover_transport(tiny_store)
        transport.search(BELIEF)  # trips nothing yet, but wastes retries
        for backend in transport.backends:
            breaker = backend.primary.breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == BREAKER_OPEN
        attempts_before = [b.primary.stats.attempts for b in transport.backends]
        result = transport.search(SYSTEMS)
        assert result.docids == ("d1", "d2", "d4")
        attempts_after = [b.primary.stats.attempts for b in transport.backends]
        assert attempts_after == attempts_before  # refused locally, no wire

    def test_all_replicas_down_raises_the_last_error(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        fast_retry = RetryPolicy(max_attempts=2, base_delay=0.001)
        backends = []
        for shard_id, shard_store in enumerate(corpus.stores):
            transports = [
                self.shard_transport(shard_store, DEAD, retry=fast_retry)
                for _ in range(2)
            ]
            backends.append(ShardBackend(shard_id, transports[0], transports[1:]))
        transport = ShardedTextTransport(corpus, backends)
        with pytest.raises(TransportError):
            transport.search(BELIEF)
        assert transport.failovers >= 1


class TestScatterGatherPooled(PooledScatter, TestScatterGather):
    pass


class TestMergedViewPooled(PooledScatter, TestMergedView):
    pass


class TestClientIntegrationPooled(PooledScatter, TestClientIntegration):
    pass


class TestFailoverPooled(PooledScatter, TestFailover):
    pass


class TestScatterRule(PooledScatter, InlineScatter):
    """The router hops to its pool only when some shard call can wait."""

    SCATTERS = {
        "search": lambda transport: transport.search(BELIEF),
        "retrieve_many": lambda transport: transport.retrieve_many(
            ["d1", "d2", "d3", "d4"]
        ),
        "document_frequency": lambda transport: transport.document_frequency(
            "title", "belief"
        ),
        "data_version": lambda transport: transport.data_version,
    }

    @pytest.mark.parametrize("op", sorted(SCATTERS))
    def test_nothing_can_wait_at_time_scale_zero(self, tiny_server, op):
        transport = self.sharded(tiny_server, replicas=1, time_scale=0.0)
        assert not any(
            shard.can_wait
            for backend in transport.backends
            for shard in backend.transports
        )
        self.SCATTERS[op](transport)
        assert transport._pool is None

    @pytest.mark.parametrize("op", sorted(SCATTERS))
    def test_waiting_shards_scatter_on_the_pool(self, tiny_store, op):
        corpus = partition_store(tiny_store, 3)
        transport = ShardedTextTransport(
            corpus,
            [
                ShardBackend(
                    shard_id, self.shard_transport(shard_store, FAULT_PROFILES["lan"])
                )
                for shard_id, shard_store in enumerate(corpus.stores)
            ],
        )
        self.opened.append(transport)
        self.SCATTERS[op](transport)
        assert transport._pool is not None

    def test_one_waiting_replica_is_enough(self, tiny_store):
        corpus = partition_store(tiny_store, 2)
        backends = []
        for shard_id, shard_store in enumerate(corpus.stores):
            primary = RemoteTextTransport(
                BooleanTextServer(shard_store), profile="lan", time_scale=0.0
            )
            replicas = (
                [self.shard_transport(shard_store, FAULT_PROFILES["lan"])]
                if shard_id
                else []
            )
            backends.append(ShardBackend(shard_id, primary, replicas))
        transport = ShardedTextTransport(corpus, backends)
        self.opened.append(transport)
        transport.search(BELIEF)
        assert transport._pool is not None

    def test_a_channel_without_a_time_scale_can_wait(self, tiny_server):
        channel = LoopbackChannel(TextServerEndpoint(tiny_server).handle)
        assert RemoteTextTransport(channel=channel).can_wait
        assert not RemoteTextTransport(tiny_server, time_scale=0.0).can_wait
        assert RemoteTextTransport(tiny_server, time_scale=0.5).can_wait
