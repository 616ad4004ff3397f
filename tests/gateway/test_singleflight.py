"""Cross-ticket single-flight on the shared gateway cache.

The bug this guards against: two tenants submit byte-identical queries
with a shared :class:`GatewayCache`, both miss (the entry is not filled
yet), and both dispatch the search to the text server — the cache
deduplicates *storage* but not *in-flight work*.  The fix is the
cache's zero-window :class:`InflightSearchTable`: the first misser
creates a flight and dispatches it, later missers join the flight and
are accounted as cache hits.

The stress tests run with ``sys.setswitchinterval(1e-6)`` and a slow
server so that, without the in-flight table, every thread reliably
misses before the first fill lands — they fail on the pre-fix client.
"""

import sys
import threading
import time

import pytest

from repro.errors import GatewayError
from repro.gateway import inflight
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.inflight import InflightSearchTable
from repro.textsys.server import BooleanTextServer


class SlowCountingServer:
    """Delegating server wrapper: counts searches, sleeps before each.

    The sleep widens the miss window: with N threads released by a
    barrier, all N observe an empty cache before any fill completes, so
    without single-flight the server sees N searches.
    """

    def __init__(self, inner, delay=0.02, fail_first=0):
        self._inner = inner
        self._delay = delay
        self._lock = threading.Lock()
        self.searches = 0
        self.batch_queries = 0
        self._failures_left = fail_first

    def _enter(self, queries=1):
        with self._lock:
            self.searches += 1
            self.batch_queries += queries
            fail = self._failures_left > 0
            if fail:
                self._failures_left -= 1
        time.sleep(self._delay)
        if fail:
            raise GatewayError("injected transient search failure")

    def search(self, query):
        self._enter()
        return self._inner.search(query)

    def search_batch(self, queries):
        self._enter(len(queries))
        return [self._inner.search(query) for query in queries]

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def switch_fast():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def _run_threads(count, target):
    barrier = threading.Barrier(count)
    errors = []
    results = []

    def runner():
        barrier.wait()
        try:
            results.append(target())
        except Exception as error:  # noqa: BLE001 - collected for asserts
            errors.append(error)

    threads = [threading.Thread(target=runner) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


class TestSingleFlightSearch:
    THREADS = 8

    def test_identical_concurrent_searches_dispatch_once(
        self, tiny_server, switch_fast
    ):
        server = SlowCountingServer(tiny_server)
        cache = GatewayCache()
        clients = [
            TextClient(server, cache=cache) for _ in range(self.THREADS)
        ]
        iterator = iter(clients)

        def submit():
            client = next(iterator)
            return client.search("TI='belief'")

        results, errors = _run_threads(self.THREADS, submit)
        assert not errors
        assert server.searches == 1  # pre-fix: == THREADS
        docids = {tuple(result.docids) for result in results}
        assert len(docids) == 1

        # Exactly one ledger paid; every waiter was credited the full
        # avoided search cost, same as a cache hit.
        paid = [c for c in clients if c.ledger.total > 0]
        waited = [c for c in clients if c.ledger.total == 0]
        assert len(paid) == 1
        assert len(waited) == self.THREADS - 1
        for client in waited:
            assert client.ledger.seconds_saved == pytest.approx(
                paid[0].ledger.total
            )
        # Late arrivals may find the filled LRU entry instead of the
        # pending fill, so coalesced can undershoot THREADS - 1; the
        # barrier plus the slow server make at least one certain.
        assert cache.stats()["coalesced"] >= 1

    def test_waiters_fall_back_when_leader_fails(
        self, tiny_server, switch_fast
    ):
        server = SlowCountingServer(tiny_server, fail_first=1)
        cache = GatewayCache()
        clients = [
            TextClient(server, cache=cache) for _ in range(self.THREADS)
        ]
        iterator = iter(clients)

        def submit():
            client = next(iterator)
            return client.search("TI='belief'")

        results, errors = _run_threads(self.THREADS, submit)
        # The leader's dispatch failed; it published None and every
        # waiter fell back to its own dispatch rather than stalling.
        assert len(errors) == 1
        assert len(results) == self.THREADS - 1
        assert server.searches >= 2
        docids = {tuple(result.docids) for result in results}
        assert len(docids) == 1

    def test_batch_misses_coalesce_across_tickets(
        self, tiny_server, switch_fast
    ):
        server = SlowCountingServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        cache = GatewayCache()
        clients = [
            TextClient(server, cache=cache) for _ in range(self.THREADS)
        ]
        iterator = iter(clients)
        queries = ["TI='belief'", "AB='retrieval'"]

        def submit():
            client = next(iterator)
            return client.search_batch(list(queries))

        results, errors = _run_threads(self.THREADS, submit)
        assert not errors
        # Each distinct expression travelled once, in one invocation.
        assert server.searches == 1
        assert server.batch_queries == len(queries)
        for batch in results:
            assert len(batch) == len(queries)
        # Everyone agrees on the answers.
        first = results[0]
        for batch in results[1:]:
            for mine, theirs in zip(batch, first):
                assert tuple(mine.docids) == tuple(theirs.docids)
        # Coalesced tickets were credited like hits (no charge, full
        # batch cost saved including the invocation they skipped).
        paid = [c for c in clients if c.ledger.total > 0]
        waited = [c for c in clients if c.ledger.total == 0]
        assert len(paid) == 1
        for client in waited:
            assert client.ledger.seconds_saved == pytest.approx(
                paid[0].ledger.total
            )


class GatedServer:
    """Answers ``answer``; the first ``gated`` searches block on ``gate``."""

    def __init__(self, answer, gated=0):
        self.answer = answer
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.searches = 0
        self._gated = gated
        self._lock = threading.Lock()

    def search(self, query):
        with self._lock:
            self.searches += 1
            blocked = self.searches <= self._gated
        if blocked:
            self.entered.set()
            assert self.gate.wait(10)
        return self.answer


def _in_thread(target):
    outcome = []
    thread = threading.Thread(target=lambda: outcome.append(target()))
    thread.start()
    return thread, outcome


class TestPendingFill:
    """The cache-facing behaviours of the in-flight table (the class
    keeps the name of the fill handle the table replaced).  The table
    treats answers as opaque, so the servers here return strings."""

    QUERY = "TI='belief'"
    KEY = "title='belief'"

    def test_pre_resolved_fill_returns_immediately(self):
        cache = GatewayCache()
        cache.validate("v1")
        cache.put_search(self.KEY, "cached", "v1")
        server = GatedServer("fetched")
        outcomes = InflightSearchTable(window_seconds=5.0).fetch(
            server, [self.QUERY], cache, [self.KEY], "v1"
        )
        # No flight, no window wait, no dispatch: the entry answers.
        assert outcomes == [("cached", True)]
        assert server.searches == 0

    def test_claim_after_fill_sees_the_cached_entry(self, tiny_server):
        cache = GatewayCache()
        client = TextClient(tiny_server, cache=cache)
        result = client.search(self.QUERY)
        before = tiny_server.counters.snapshot()
        ((again, joined),) = cache.inflight.fetch(
            tiny_server, [self.QUERY], cache, [self.KEY], tiny_server.data_fingerprint
        )
        assert joined and again.docids == result.docids
        assert (tiny_server.counters - before).searches == 0

    def test_publish_on_moved_version_resolves_none(self):
        """A flight launched under ``v1`` is never consumed — joined or
        cached — by a client that validated ``v2``."""
        cache = GatewayCache()
        table = cache.inflight
        cache.validate("v1")
        old = GatedServer("old-data", gated=1)
        thread, stale = _in_thread(
            lambda: table.fetch(old, [self.QUERY], cache, [self.KEY], "v1")
        )
        assert old.entered.wait(10)
        cache.validate("v2")  # the data moved while v1's search is in flight
        new = GatedServer("new-data")
        assert table.fetch(new, [self.QUERY], cache, [self.KEY], "v2") == [
            ("new-data", False)
        ]
        old.gate.set()
        thread.join(10)
        assert not thread.is_alive()
        assert stale == [[("old-data", False)]]
        assert cache.search.peek(self.KEY) == "new-data"  # stale fill refused

    def test_wait_times_out_to_none(self, monkeypatch):
        """A flight nobody lands counts as failed: the waiter dispatches
        its own search, and the dead flight leaves the table."""
        monkeypatch.setattr(inflight, "_FLIGHT_TIMEOUT", 0.05)
        table = InflightSearchTable()
        server = GatedServer("answer", gated=1)
        thread, _ = _in_thread(lambda: table.fetch(server, [self.QUERY]))
        assert server.entered.wait(10)
        assert table.fetch(server, [self.QUERY]) == [("answer", False)]
        assert server.searches == 2
        assert table.fetch(server, [self.QUERY]) == [("answer", False)]
        assert server.searches == 3  # created afresh, not joined to the corpse
        server.gate.set()
        thread.join(10)
        assert not thread.is_alive()


class TestWindowedCoalescing:
    """Regression for the PR 11 finding: with the cache's fill table in
    front of the sharing executor, duplicates never reached the window,
    so its population never met the inflight hint and the leader slept
    the whole window (0.5 s here) for a search everyone already awaited."""

    THREADS = 4
    WINDOW = 0.5

    def test_joiners_count_toward_the_window_population(self, tiny_server):
        server = SlowCountingServer(tiny_server, delay=0.0)
        cache = GatewayCache()
        table = InflightSearchTable(
            window_seconds=self.WINDOW, inflight_hint=lambda: self.THREADS
        )
        clients = [
            TextClient(server, cache=cache, inflight=table)
            for _ in range(self.THREADS)
        ]
        iterator = iter(clients)
        started = time.monotonic()
        results, errors = _run_threads(
            self.THREADS, lambda: next(iterator).search("TI='belief'")
        )
        elapsed = time.monotonic() - started
        assert not errors
        assert server.searches == 1
        assert elapsed < self.WINDOW / 2
        assert cache.stats()["coalesced"] == self.THREADS - 1
        alone = TextClient(tiny_server)
        alone.search("TI='belief'")
        for client in clients:
            assert client.ledger.total + client.ledger.seconds_saved == (
                pytest.approx(alone.ledger.total)
            )
        assert sum(1 for client in clients if client.ledger.total > 0) == 1
