"""The remote transport end to end: correctness, retries, accounting."""

import json

import pytest

from repro.core.feedback import corpus_fingerprint
from repro.core.joinmethods import JoinContext, ProbeRtp
from repro.core.query import TextJoinPredicate, TextJoinQuery
from repro.errors import (
    CircuitOpenError,
    RemoteProtocolError,
    SearchLimitExceeded,
    TextSystemError,
    TransportError,
)
from repro.gateway.client import TextClient
from repro.gateway.tracing import CallTracer
from repro.remote.channel import (
    FaultInjectingChannel,
    FaultProfile,
    LoopbackChannel,
)
from repro.remote.codec import decode_response, encode_request, encode_response
from repro.remote.endpoint import TextServerEndpoint
from repro.remote.resilience import CircuitBreaker, RetryPolicy
from repro.remote.transport import BATCH_FRAME_SIZE, RemoteTextTransport
from repro.textsys.parser import parse_search
from repro.textsys.server import BooleanTextServer
from repro.textsys.vectorserver import VectorTextServer

BELIEF = "TI='belief'"
UPDATE = "TI='update'"
SYSTEMS = "TI='systems'"


def make_transport(server, profile="lan", **kwargs):
    kwargs.setdefault("time_scale", 0.0)
    return RemoteTextTransport(server, profile=profile, **kwargs)


class TestApiEquivalence:
    """Every server operation answers identically through the wire."""

    def test_search(self, tiny_server):
        transport = make_transport(tiny_server)
        local = tiny_server.search(BELIEF)
        remote = transport.search(BELIEF)
        assert remote.docids == local.docids
        assert remote.postings_processed == local.postings_processed
        assert [d.fields for d in remote.documents] == [
            d.fields for d in local.documents
        ]

    def test_search_accepts_node_objects(self, tiny_server):
        transport = make_transport(tiny_server)
        node = parse_search(BELIEF)
        assert transport.search(node).docids == tiny_server.search(node).docids

    def test_retrieve_and_retrieve_many(self, tiny_server):
        transport = make_transport(tiny_server)
        assert transport.retrieve("d1").fields == tiny_server.retrieve("d1").fields
        docids = ["d1", "d2", "d3", "d4", "d1"]
        assert len(docids) > BATCH_FRAME_SIZE
        remote = transport.retrieve_many(docids)
        assert [d.docid for d in remote] == docids  # order preserved across frames

    def test_document_frequency_and_meta(self, tiny_server):
        transport = make_transport(tiny_server)
        assert transport.document_frequency("title", "belief") == (
            tiny_server.document_frequency("title", "belief")
        )
        assert transport.document_count == tiny_server.document_count
        assert transport.term_limit == tiny_server.term_limit
        assert transport.data_version == tiny_server.data_version

    def test_meta_cached_but_data_version_fresh(self, tiny_server):
        transport = make_transport(tiny_server)
        transport.document_count
        frames_after_first = transport.channel.stats.frames_sent
        transport.term_limit  # served from the cached meta frame
        assert transport.channel.stats.frames_sent == frames_after_first
        transport.data_version  # always refetched: it is what moves
        assert transport.channel.stats.frames_sent == frames_after_first + 1

    def test_server_errors_cross_the_wire_typed(self, tiny_store):
        server = BooleanTextServer(tiny_store, term_limit=1)
        transport = make_transport(server)
        with pytest.raises(SearchLimitExceeded):
            transport.search("TI='belief' AND TI='update'")

    def test_batch_validation(self, tiny_server):
        transport = make_transport(tiny_server, batch_limit=3)
        with pytest.raises(TextSystemError):
            transport.search_batch([])
        with pytest.raises(TextSystemError):
            transport.search_batch([BELIEF] * 4)

    def test_search_batch_matches_serial_searches(self, tiny_server):
        transport = make_transport(tiny_server)
        queries = [BELIEF, UPDATE, SYSTEMS, UPDATE, BELIEF]  # two frames
        batched = transport.search_batch(queries)
        assert [r.docids for r in batched] == [
            tiny_server.search(q).docids for q in queries
        ]

    def test_pooled_dispatch_matches_serial(self, tiny_server):
        queries = [BELIEF, UPDATE, SYSTEMS] * 3  # three frames
        serial = make_transport(tiny_server)
        pooled = make_transport(tiny_server, pool_size=4)
        try:
            assert [r.docids for r in pooled.search_batch(queries)] == [
                r.docids for r in serial.search_batch(queries)
            ]
        finally:
            pooled.close()

    def test_frame_correlation_enforced(self):
        channel = LoopbackChannel(lambda frame: encode_response(999, {}))
        transport = RemoteTextTransport(channel=channel)
        with pytest.raises(RemoteProtocolError):
            transport.search(BELIEF)


class FailNthOnce(LoopbackChannel):
    """Deliver everything except the Nth frame's first attempt."""

    def __init__(self, handler, fail_at):
        super().__init__(handler)
        self.fail_at = fail_at
        self.failed = False

    def send(self, frame):
        if not self.failed and self.stats.frames_sent + 1 == self.fail_at:
            self.failed = True
            self.stats.frames_sent += 1
            error = TransportError("scripted failure")
            error.simulated_seconds = 0.5
            raise error
        return super().send(frame)


class TestRetries:
    def test_only_the_failed_frame_is_resent(self, tiny_server):
        # The capability record (one meta frame) travels first; then 12
        # queries in frames of 4 -> frames 2..4; frame 3 fails once.
        channel = FailNthOnce(TextServerEndpoint(tiny_server).handle, fail_at=3)
        transport = RemoteTextTransport(channel=channel)
        queries = [BELIEF, UPDATE, SYSTEMS] * 4
        results = transport.search_batch(queries)
        assert [r.docids for r in results] == [
            tiny_server.search(q).docids for q in queries
        ]
        # meta + 3 frames + 1 retry travelled; the server answered 3.
        assert channel.stats.frames_sent == 5
        assert channel.stats.frames_delivered == 4
        assert transport.stats.retries == 1
        assert transport.stats.seconds_retried > 0.0

    def test_waste_accumulates_failed_latency_plus_backoff(self, tiny_server):
        channel = FailNthOnce(TextServerEndpoint(tiny_server).handle, fail_at=1)
        retry = RetryPolicy(base_delay=0.25)
        transport = RemoteTextTransport(channel=channel, retry=retry)
        transport.search(BELIEF)
        waste, events = transport.drain_accounting()
        assert waste == pytest.approx(0.5 + 0.25)  # failed wire time + backoff
        assert [event.kind for event in events] == ["retry"]
        # Draining clears the pending accumulators.
        assert transport.drain_accounting() == (0.0, [])

    def test_gives_up_after_max_attempts(self, tiny_server):
        always_down = FaultInjectingChannel(
            TextServerEndpoint(tiny_server).handle,
            FaultProfile("down", error_rate=1.0),
            seed=0,
            time_scale=0.0,
        )
        transport = RemoteTextTransport(
            channel=always_down,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            breaker=CircuitBreaker(failure_threshold=100),
        )
        with pytest.raises(TransportError):
            transport.search(BELIEF)
        assert transport.stats.attempts == 3
        assert transport.stats.failures == 1


class TestCircuitBreaker:
    def test_open_circuit_refuses_without_touching_the_wire(self, tiny_server):
        always_down = FaultInjectingChannel(
            TextServerEndpoint(tiny_server).handle,
            FaultProfile("down", error_rate=1.0),
            seed=0,
            time_scale=0.0,
        )
        transport = RemoteTextTransport(
            channel=always_down,
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=1, recovery_time=60.0),
        )
        with pytest.raises(TransportError):
            transport.search(BELIEF)
        frames_on_wire = always_down.stats.frames_sent
        with pytest.raises(CircuitOpenError):
            transport.search(BELIEF)
        assert always_down.stats.frames_sent == frames_on_wire
        assert transport.stats.breaker_trips == 1
        _, events = transport.drain_accounting()
        kinds = {event.kind for event in events}
        assert "breaker" in kinds

    def test_report_shape(self, tiny_server):
        transport = make_transport(tiny_server)
        transport.search(BELIEF)
        report = transport.report()
        assert report["calls"] == 1
        assert report["breaker_state"] == "closed"
        assert "channel" in report and report["channel"]["frames_delivered"] == 1

    def test_concurrent_transition_drain_never_duplicates_or_drops(
        self, tiny_server
    ):
        """Regression: the transport's transition drain (cursor read +
        drain + advance) must be one atomic step.  Racing pool workers
        used to read the same cursor, drain the same transitions twice,
        and advance the cursor past transitions nobody had drained."""
        import threading
        import time as _time

        class SlowDrainBreaker(CircuitBreaker):
            """Widens the read-drain-advance window to force the race."""

            def drain_transitions(self, seen):
                _time.sleep(0.002)
                return super().drain_transitions(seen)

        breaker = SlowDrainBreaker(failure_threshold=1, recovery_time=0.0)
        transport = make_transport(tiny_server, breaker=breaker)
        for _ in range(4):  # closed->open, open->half-open, half-open->closed
            breaker.record_failure()
            assert breaker.allow()
            breaker.record_success()
        transitions_now = len(breaker.transitions)

        threads = [
            threading.Thread(target=transport._note_breaker) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)

        _, events = transport.drain_accounting()
        noted = [event for event in events if event.kind == "breaker"]
        expected = [
            f"{old} -> {new}"
            for _, old, new in breaker.transitions[:transitions_now]
        ]
        assert [event.detail for event in noted] == expected  # no dupes
        assert transport.stats.breaker_trips == 4

        # And nothing was lost to an over-advanced cursor: transitions
        # recorded after the contention drain exactly once.
        breaker.record_failure()
        transport._note_breaker()
        _, events = transport.drain_accounting()
        late = [event.detail for event in events if event.kind == "breaker"]
        assert late == ["closed -> open"]


class TestClientIntegration:
    """The acceptance criteria: same answers, same priced totals."""

    def run_workload(self, client):
        client.search(BELIEF)
        client.search_batch([UPDATE, SYSTEMS, BELIEF, UPDATE])
        client.probe(SYSTEMS)
        client.retrieve_many(["d1", "d3"])
        return client

    def test_flaky_transport_same_results_and_totals(self, tiny_store):
        local_server = BooleanTextServer(tiny_store, batch_limit=50)
        local = self.run_workload(TextClient(local_server))

        remote_server = BooleanTextServer(tiny_store)
        transport = make_transport(remote_server, profile="flaky", seed=11)
        remote = self.run_workload(TextClient(transport))

        assert remote.ledger.total == local.ledger.total  # bit-identical
        assert remote.ledger.searches == local.ledger.searches
        assert remote.ledger.long_documents == local.ledger.long_documents
        assert remote.ledger.seconds_retried >= 0.0
        assert local.ledger.seconds_retried == 0.0

    def test_flaky_transport_wastes_seconds_outside_total(self, tiny_store):
        server = BooleanTextServer(tiny_store)
        transport = make_transport(server, profile="flaky", seed=2)
        client = TextClient(transport)
        for _ in range(10):
            client.search(BELIEF)
        assert client.ledger.seconds_retried > 0.0
        # The Section 4.1 identity prices answered work only.
        constants = client.ledger.constants
        assert client.ledger.total == pytest.approx(
            constants.invocation * client.ledger.searches
            + constants.per_posting * client.ledger.postings_processed
            + constants.short_form * client.ledger.short_documents
        )

    def test_retry_events_become_spans_but_not_call_log(self, tiny_store):
        server = BooleanTextServer(tiny_store)
        transport = make_transport(server, profile="flaky", seed=2)
        client = TextClient(transport, tracer=CallTracer(enabled=True))
        for _ in range(10):
            client.search(BELIEF)
        kinds = {span.kind for span in client.tracer.spans}
        assert "retry" in kinds
        assert all(
            span.expression == "title='belief'"
            for span in client.tracer.spans
            if span.kind == "search"
        )  # retry events never masquerade as searches

    def test_channel_only_transport_runs_rtp_and_shares_the_fingerprint(
        self, tiny_server, tiny_catalog, tiny_context
    ):
        """Regression: a channel-only transport has no in-process server
        to reach into, so RTP-family methods died on ``.store`` and
        ``corpus_fingerprint`` lost the field vocabulary."""
        channel = LoopbackChannel(TextServerEndpoint(tiny_server).handle)
        transport = RemoteTextTransport(channel=channel)
        assert corpus_fingerprint(transport) == corpus_fingerprint(tiny_server)
        query = TextJoinQuery(
            relation="student",
            join_predicates=(
                TextJoinPredicate("student.name", "author"),
                TextJoinPredicate("student.advisor", "author"),
            ),
        )
        method = ProbeRtp(("student.name",))
        remote = method.execute(
            query, JoinContext(tiny_catalog, TextClient(transport))
        )
        local = method.execute(query, tiny_context)
        assert remote.result_keys() == local.result_keys() != set()
        assert remote.cost.total == local.cost.total


class TestMalformedFrames:
    """Valid JSON with a payload of the wrong shape is answered with a
    typed error frame; nothing escapes the endpoint."""

    @pytest.mark.parametrize(
        "op, payload",
        [
            ("search", {}),
            ("search", [BELIEF]),
            ("search_batch", {"queries": "TI='belief'"}),
            ("retrieve", {"docid": ["d1"]}),
            ("retrieve_many", {"docids": 5}),
            ("retrieve_many", {"docids": [["d1"]]}),
            ("document_frequency", {"field": "TI"}),
            ("meta", [1]),
            (["search"], {}),
            # Valid payload shapes whose search node has wrongly typed fields.
            ("search", {"query": {"type": "term", "field": 1, "term": 2}}),
            (
                "search",
                {"query": {"type": "phrase", "field": "title", "words": [1, 2]}},
            ),
            ("search", {"query": {"type": "truncated", "field": "title", "prefix": 7}}),
            ("search", {"query": {"type": "term", "field": ["x"], "term": "hello"}}),
            ("search", {"query": {"type": "phrase", "field": "title", "words": "ab"}}),
            ("search_batch", {"queries": [{"type": "term", "field": 1, "term": 2}]}),
            (
                "search",
                {
                    "query": {
                        "type": "proximity",
                        "field": "title",
                        "left": "a",
                        "right": "b",
                        "distance": "3",
                    }
                },
            ),
        ],
    )
    def test_answered_with_a_protocol_error_frame(self, tiny_server, op, payload):
        endpoint = TextServerEndpoint(tiny_server)
        frame = json.dumps({"id": 7, "op": op, "payload": payload})
        frame_id, ok, error = decode_response(endpoint.handle(frame))
        assert (frame_id, ok, error["type"]) == (7, False, "RemoteProtocolError")
        # The endpoint still serves a well-formed frame afterwards.
        frame = encode_request(8, "retrieve_many", {"docids": ["d1"]})
        assert decode_response(endpoint.handle(frame))[:2] == (8, True)

    @pytest.mark.parametrize(
        "top_k, threshold", [(3, "x"), (3.5, 0.0), (None, None), ("3", 0.0)]
    )
    def test_a_wrongly_typed_vector_node_is_a_protocol_error(
        self, tiny_store, top_k, threshold
    ):
        endpoint = TextServerEndpoint(VectorTextServer(tiny_store, "title"))
        node = {
            "type": "vector",
            "field": "title",
            "terms": ["belief"],
            "top_k": top_k,
            "threshold": threshold,
        }
        frame = encode_request(7, "search", {"query": node})
        frame_id, ok, error = decode_response(endpoint.handle(frame))
        assert (frame_id, ok, error["type"]) == (7, False, "RemoteProtocolError")
