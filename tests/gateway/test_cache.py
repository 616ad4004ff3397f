"""Unit tests for the gateway call cache (LRU, accounting, invalidation)."""

import pytest

from repro.errors import GatewayError
from repro.gateway.cache import GatewayCache, LruCache
from repro.gateway.client import TextClient
from repro.textsys.query import TermQuery
from repro.textsys.server import BooleanTextServer


class TestLruCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(GatewayError):
            LruCache(0)

    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the stalest
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_peek_does_not_touch_recency_or_stats(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert cache.stats.lookups == 0
        cache.put("c", 3)  # "a" is still the oldest: peeking did not refresh
        assert "a" not in cache

    def test_put_overwrites_in_place(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2


class TestSearchCaching:
    def test_hit_charges_nothing_and_credits_savings(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        first = client.search("TI='belief'")
        paid = client.ledger.total
        assert paid > 0
        second = client.search("TI='belief'")
        assert client.ledger.total == paid  # the hit charged nothing
        assert client.ledger.searches == 1
        assert client.ledger.seconds_saved == pytest.approx(paid)
        assert [d.docid for d in second] == [d.docid for d in first]

    def test_equivalent_string_and_node_share_one_entry(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        client.search("TI='belief'")
        client.search(TermQuery("title", "belief"))
        assert client.ledger.searches == 1
        assert client.cache.hits == 1

    def test_probe_shares_the_search_cache(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        client.search("TI='belief'")
        assert client.probe("TI='belief'") is True
        assert client.ledger.searches == 1

    def test_savings_are_not_part_of_the_total(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        client.search("TI='belief'")
        total_after_miss = client.ledger.total
        client.search("TI='belief'")
        client.search("TI='belief'")
        assert client.ledger.total == total_after_miss
        assert client.ledger.seconds_saved > 0

    def test_no_cache_accounting_is_unchanged(self, tiny_server):
        cached = TextClient(tiny_server, cache=GatewayCache())
        plain = TextClient(tiny_server)
        for client in (cached, plain):
            client.search("TI='belief'")
            client.search("TI='systems'")
        assert plain.ledger.total == pytest.approx(cached.ledger.total)
        assert plain.ledger.seconds_saved == 0.0


class TestRetrieveCaching:
    def test_second_retrieve_is_free(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        first = client.retrieve("d1")
        second = client.retrieve("d1")
        assert second.fields == first.fields
        assert client.ledger.long_documents == 1
        assert client.ledger.seconds_saved == pytest.approx(
            client.ledger.constants.long_form
        )

    def test_retrieve_many_fills_and_uses_the_cache(self, tiny_server):
        client = TextClient(tiny_server, cache=GatewayCache())
        client.retrieve_many(["d1", "d2"])
        client.retrieve_many(["d2", "d1", "d3"])
        assert client.ledger.long_documents == 3  # d1, d2, d3 each once


class TestInvalidation:
    def test_store_mutation_drops_the_cache(self, tiny_store):
        from repro.textsys.server import BooleanTextServer

        server = BooleanTextServer(tiny_store)
        client = TextClient(server, cache=GatewayCache())
        client.search("TI='belief'")
        client.search("TI='belief'")
        assert client.cache.hits == 1

        tiny_store.add_record(
            "d9",
            title="Belief propagation",
            author="pearl",
            abstract="belief networks",
            year="1988",
        )
        server.index.rebuild()
        result = client.search("TI='belief'")
        assert client.ledger.searches == 2  # re-fetched, not served stale
        assert "d9" in {document.docid for document in result}
        assert client.cache.search.stats.invalidations == 1

    def test_swapping_servers_a_b_a_never_serves_stale(self, tiny_store):
        """Regression: two stores can sit at the same *numeric* version,
        so a client retargeted A -> B -> A must invalidate on every swap
        (the fingerprint is ``(store uid, version)``, not the bare
        version counter)."""
        from repro.textsys.documents import DocumentStore
        from repro.textsys.server import BooleanTextServer

        other = DocumentStore(
            ["title", "author", "abstract", "year"],
            short_fields=["title", "author", "year"],
        )
        for number in range(1, 5):  # same mutation count as tiny_store
            other.add_record(
                f"x{number}",
                title=f"Belief paper {number}",
                author="someone",
                abstract="belief elsewhere",
                year="2000",
            )
        server_a = BooleanTextServer(tiny_store)
        server_b = BooleanTextServer(other)
        assert tiny_store.version == other.version  # the collision

        client = TextClient(server_a, cache=GatewayCache())
        from_a = client.search("TI='belief'")
        client.server = server_b
        from_b = client.search("TI='belief'")
        assert set(from_b.docids) == {"x1", "x2", "x3", "x4"}
        client.server = server_a
        again = client.search("TI='belief'")
        assert again.docids == from_a.docids
        assert client.cache.hits == 0  # every answer was re-fetched
        assert client.cache.search.stats.invalidations == 2

    def test_validate_compares_versions_for_inequality(self):
        cache = GatewayCache()
        assert cache.validate(5) is True  # first observation
        cache.search.put("x", object())
        assert cache.validate(5) is True
        assert "x" in cache.search
        assert cache.validate(3) is False  # ANY change invalidates
        assert "x" not in cache.search

    def test_clear_forgets_the_version(self):
        cache = GatewayCache()
        cache.validate(1)
        cache.search.put("x", object())
        cache.clear()
        assert len(cache.search) == 0
        assert cache.validate(2) is True  # no invalidation recorded
        assert cache.search.stats.invalidations == 0


class TestBatchCaching:
    def _client(self, tiny_server, **kwargs):
        return TextClient(BooleanTextServer(tiny_server.store, batch_limit=10), **kwargs)

    def test_partial_hits_only_pay_for_misses(self, tiny_server):
        client = self._client(tiny_server, cache=GatewayCache())
        client.search("TI='belief'")
        paid_before = client.ledger.total
        results = client.search_batch(["TI='belief'", "TI='systems'"])
        assert len(results) == 2
        miss = client.server.search("TI='systems'")
        constants = client.ledger.constants
        assert client.ledger.total - paid_before == pytest.approx(
            constants.search_cost(miss.postings_processed, len(miss))
        )

    def test_all_hits_save_the_invocation_too(self, tiny_server):
        client = self._client(tiny_server, cache=GatewayCache())
        client.search_batch(["TI='belief'", "TI='systems'"])
        paid = client.ledger.total
        saved_before = client.ledger.seconds_saved
        client.search_batch(["TI='belief'", "TI='systems'"])
        assert client.ledger.total == paid
        saved = client.ledger.seconds_saved - saved_before
        assert saved > client.ledger.constants.invocation

    def test_duplicate_misses_in_one_batch_dispatch_once(self, tiny_server):
        """Regression: identical queries missing together in one batch
        must be deduped before dispatch — one server search, one charge —
        with the shared answer fanned back out to every position."""
        client = self._client(tiny_server, cache=GatewayCache())
        results = client.search_batch(
            ["TI='belief'", "TI='belief'", "TI='systems'", "TI='belief'"]
        )
        assert client.server.counters.searches == 2  # belief, systems
        assert results[0].docids == results[1].docids == results[3].docids
        reference = self._client(tiny_server, cache=GatewayCache())
        reference.search_batch(["TI='belief'", "TI='systems'"])
        assert client.ledger.total == pytest.approx(reference.ledger.total)

    def test_duplicate_hits_still_count_as_hits(self, tiny_server):
        client = self._client(tiny_server, cache=GatewayCache())
        client.search("TI='belief'")
        results = client.search_batch(["TI='belief'", "TI='belief'"])
        assert results[0].docids == results[1].docids
        assert client.cache.hits == 2
        assert client.ledger.searches == 1  # no invocation went out

    def test_uncached_batch_accounting_is_unchanged(self, tiny_server):
        cached = self._client(tiny_server, cache=GatewayCache())
        plain = self._client(tiny_server)
        for client in (cached, plain):
            client.search_batch(["TI='belief'", "TI='systems'"])
        assert plain.ledger.total == pytest.approx(cached.ledger.total)


class TestAcceptance:
    def test_warm_cache_halves_a_repeated_ts_join(self, scenario):
        """A TS join re-executed against a warm cache costs >50% less."""
        from repro.core.joinmethods import TupleSubstitution

        cache = GatewayCache()
        context = scenario.context(cache=cache)
        query = scenario.query("q1")
        method = TupleSubstitution()
        first = method.execute(query, context)
        second = method.execute(query, context)
        assert second.result_keys() == first.result_keys()
        assert first.cost.total > 0
        assert second.cost.total < 0.5 * first.cost.total
        assert cache.hits > 0
        assert second.cost.seconds_saved > 0
