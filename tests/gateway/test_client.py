"""Unit tests for the metered text client."""

import dataclasses
import threading
import time

import pytest

from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.inflight import InflightSearchTable
from repro.gateway.tracing import CallTracer
from repro.textsys.query import TermQuery
from repro.textsys.server import BooleanTextServer


class TestSearchAccounting:
    def test_search_charges_ledger(self, tiny_server):
        client = TextClient(tiny_server)
        result = client.search("TI='belief'")
        assert client.ledger.searches == 1
        assert client.ledger.postings_processed == result.postings_processed
        assert client.ledger.short_documents == len(result)

    def test_probe_is_a_charged_search(self, tiny_server):
        client = TextClient(tiny_server)
        assert client.probe("TI='belief'") is True
        assert client.probe("TI='zzz'") is False
        assert client.ledger.searches == 2

    def test_retrieve_charges_long_form(self, tiny_server):
        client = TextClient(tiny_server)
        client.retrieve("d1")
        assert client.ledger.long_documents == 1
        assert client.ledger.total == pytest.approx(client.ledger.constants.long_form)

    def test_retrieve_many(self, tiny_server):
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d1", "d3"])
        assert len(documents) == 2
        assert client.ledger.long_documents == 2

    def test_retrieve_many_charges_duplicates_once(self, tiny_server):
        """Regression: duplicated docids used to pay ``c_l`` per element.

        ``["d1", "d1", "d2"]`` names two distinct documents, so the
        ledger must charge exactly two long-form retrievals.
        """
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d1", "d1", "d2"])
        assert [document.docid for document in documents] == ["d1", "d2"]
        assert client.ledger.long_documents == 2
        assert client.ledger.total == pytest.approx(
            2 * client.ledger.constants.long_form
        )

    def test_retrieve_many_preserves_first_occurrence_order(self, tiny_server):
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d3", "d1", "d3", "d2", "d1"])
        assert [document.docid for document in documents] == ["d3", "d1", "d2"]
        assert client.ledger.long_documents == 3

    def test_charge_rtp(self, tiny_server):
        client = TextClient(tiny_server)
        cost = client.charge_rtp(10)
        assert cost == pytest.approx(10 * client.ledger.constants.rtp_per_document)


class TestCallLog:
    def test_log_disabled_by_default(self, tiny_server):
        client = TextClient(tiny_server)
        client.search("TI='belief'")
        assert client.tracer.spans == []

    def test_log_records_expressions(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        client.search(TermQuery("title", "belief"))
        client.search("TI='zzz'")
        first, second = client.tracer.spans
        assert first.expression == "title='belief'"
        assert first.result_size == 2
        assert second.result_size == 0


class TestStatisticsReads:
    """The two planning reads: forwarded, settled, traced, never charged."""

    def test_directory_read_is_free_and_sends_no_search(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        before = client.ledger.snapshot()
        counters = tiny_server.counters.snapshot()
        frequencies = client.document_frequencies("title", ["belief", "zzz"])
        assert frequencies == [2, 0]
        assert client.ledger.snapshot() == before
        assert tiny_server.counters.snapshot() == counters
        (span,) = client.tracer.spans
        assert (span.kind, span.result_size, span.cost) == ("stats", 2, 0.0)

    def test_statistics_search_is_a_real_search_nobody_pays_for(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        before = client.ledger.snapshot()
        result = client.statistics_search("TI='belief'")
        assert result.docids == tiny_server.search("TI='belief'").docids
        assert client.ledger.snapshot() == before
        (span,) = client.tracer.spans
        assert (span.kind, span.expression, span.cost) == (
            "stats", "title='belief'", 0.0
        )
        assert client.tracer.summary()["by_kind"]["stats"] == 1


def test_meta_properties(tiny_server):
    client = TextClient(tiny_server)
    assert client.document_count == 4
    assert client.term_limit == 70
    assert client.batch_limit is None
    assert client.source_kind == "boolean"
    assert client.field_names == ("title", "author", "abstract", "year")
    assert client.short_fields == ("title", "author", "year")
    assert client.data_version == tiny_server.data_version


class _GatedServer:
    """Delegating server whose first search (or batch) waits for ``open``,
    so other callers can join its flight before it lands."""

    def __init__(self, inner):
        self._inner = inner
        self.open = threading.Event()
        self._gated = True

    def _wait(self):
        if self._gated:
            self._gated = False
            assert self.open.wait(10)

    def search(self, query):
        self._wait()
        return self._inner.search(query)

    def search_batch(self, queries):
        self._wait()
        return self._inner.search_batch(queries)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _wait_for(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _settle(store, call, queries, outcome, cached, tabled, mode=None):
    """Run ``call(client)`` once on a fresh world in which ``queries``
    are a cache *hit* (primed by another client), *joined* to another
    client's flight, or a *miss*; returns the caller's ledger, spans and
    the table's sharing statistics."""
    server = _GatedServer(
        BooleanTextServer(store, batch_limit=4, engine_mode=mode)
    )
    cache = GatewayCache() if cached else None
    table = InflightSearchTable() if tabled else None

    def client(tracer=None):
        return TextClient(server, cache=cache, inflight=table, tracer=tracer)

    subject = client(CallTracer())
    if outcome == "join":
        flights = subject.inflight._flights
        leader = threading.Thread(
            target=client().search_batch, args=(list(queries),)
        )
        leader.start()
        _wait_for(lambda: len(flights) == len(queries))
        caller = threading.Thread(target=call, args=(subject,))
        caller.start()
        _wait_for(lambda: all(f.participants == 2 for f in list(flights.values())))
        server.open.set()
        for thread in (leader, caller):
            thread.join(10)
            assert not thread.is_alive()
    else:
        server.open.set()
        if outcome == "hit":
            client().search_batch(list(queries))
        call(subject)
    sharing = subject.inflight.stats if subject.inflight else None
    return subject.ledger, subject.tracer.spans, sharing


_LEDGER = (
    "total",
    "searches",
    "postings_processed",
    "short_documents",
    "seconds_saved",
    "seconds_shared",
)
_SETUPS = [
    (cached, tabled, outcome)
    for cached in (False, True)
    for tabled in (False, True)
    for outcome in ("miss", "hit", "join")
    if not (outcome == "hit" and not cached)
    and not (outcome == "join" and not (cached or tabled))
]


class TestOneSettlement:
    """A search is a batch of one: both settle through one path."""

    QUERY = "TI='belief'"

    @pytest.mark.parametrize("mode", ["reference", "optimized"])
    @pytest.mark.parametrize("cached,tabled,outcome", _SETUPS)
    def test_search_and_batch_of_one_settle_identically(
        self, tiny_store, mode, cached, tabled, outcome
    ):
        settled = [
            _settle(tiny_store, call, [self.QUERY], outcome, cached, tabled, mode)
            for call in (
                lambda client: client.search(self.QUERY),
                lambda client: client.search_batch([self.QUERY]),
            )
        ]
        (alone, [search], stats), (batch, [batched], batch_stats) = settled
        for name in _LEDGER:
            assert getattr(alone, name) == getattr(batch, name), name
        if stats is not None:
            assert stats.snapshot() == batch_stats.snapshot()
        assert (search.kind, batched.kind) == ("search", "batch")
        assert (search.expression, batched.expression) == (
            "title='belief'",
            "<batch of 1>",
        )
        same = ("expression", "kind")
        assert dataclasses.replace(search, **{n: "" for n in same}) == (
            dataclasses.replace(batched, **{n: "" for n in same})
        )
        # The outcome really was what the case names.
        assert (alone.searches == 1) == (outcome == "miss" or not cached)
        assert (alone.seconds_shared > 0) == (outcome == "join" and not cached)

    def test_a_caller_nothing_was_sent_for_is_credited_its_invocation(
        self, tiny_store
    ):
        """Without a cache, a batch whose every answer joined another
        caller's flight is charged in full and credited in full: the
        ``c_i`` it did not cause lands in ``seconds_shared`` too."""
        queries = ["TI='belief'", "TI='systems'"]
        ledger, _, stats = _settle(
            tiny_store,
            lambda client: client.search_batch(queries),
            queries,
            "join",
            cached=False,
            tabled=True,
        )
        assert ledger.searches == 1
        assert ledger.seconds_shared == pytest.approx(ledger.total)
        assert stats.snapshot()["shared_searches"] == 2
        assert stats.snapshot()["seconds_shared"] == ledger.seconds_shared
