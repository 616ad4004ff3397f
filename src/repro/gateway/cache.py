"""Gateway-level result caching for repeated foreign calls.

The cost model (Section 4.1) prices every search at
``c_i + c_p * postings + c_s * |result|`` and every long-form retrieval
at ``c_l`` — and the execution methods repeat themselves constantly: TS
sends one search per distinct joining tuple, probing replays identical
short-form probes across candidate plans, and the bench/adaptive layers
re-run the same queries many times per run.  The gateway cache answers a
repeated call locally: a hit charges *nothing* into the ledger, and the
avoided cost is tracked separately as "simulated seconds saved".

Two caches cover the two foreign operations:

- :class:`SearchCache` — LRU over short-form result sets, keyed on the
  *canonical* search expression (``SearchNode.to_expression()``), so
  structurally equal searches built through different code paths share
  one entry;
- :class:`RetrieveCache` — LRU over long-form documents, keyed by docid.

**Invalidation.**  Serving stale documents would be a correctness bug,
so both caches validate against a monotone *data version*: the
:class:`~repro.textsys.documents.DocumentStore` stamps every mutation
into ``store.version`` and the server publishes it as ``data_version``.
:meth:`GatewayCache.validate` clears everything the moment the observed
version moves, so a stale cache can never serve wrong documents.

Caching is **opt-in**: a :class:`~repro.gateway.client.TextClient`
constructed without a cache behaves exactly as before (ledger totals
bit-identical), which keeps the paper-calibrated measurements honest.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Generic, Optional, TypeVar

from repro.errors import GatewayError
from repro.gateway.inflight import InflightSearchTable
from repro.textsys.documents import Document
from repro.textsys.result import ResultSet

__all__ = [
    "CacheStats",
    "LruCache",
    "SearchCache",
    "RetrieveCache",
    "GatewayCache",
    "DEFAULT_SEARCH_CAPACITY",
    "DEFAULT_RETRIEVE_CAPACITY",
]

#: Default entry capacities.  Search results are small (short forms);
#: long-form documents are the expensive objects, so that cache is
#: smaller by default.
DEFAULT_SEARCH_CAPACITY = 4096
DEFAULT_RETRIEVE_CAPACITY = 1024

V = TypeVar("V")


@dataclass
class CacheStats:
    """Observable cache behavior (reset with the cache)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class LruCache(Generic[V]):
    """A bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the oldest entry once the
    capacity is exceeded.  Lookup statistics accumulate in ``stats``.

    Safe to share across threads: the recency bookkeeping
    (``move_to_end`` on the backing :class:`OrderedDict`, eviction via
    ``popitem``) and the hit/miss counters mutate under one internal
    lock.  Unlocked, two concurrent ``get``/``put`` calls can interleave
    inside ``move_to_end``/``popitem`` and raise ``KeyError`` (entry
    evicted between the membership check and the move) or corrupt the
    statistics — the races the serving front-end's shared caches hit.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise GatewayError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, V]" = OrderedDict()

    def get(self, key: str) -> Optional[V]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: str) -> Optional[V]:
        """Like :meth:`get` but without touching recency or statistics."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: V) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self)}/{self.capacity} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )


class SearchCache(LruCache[ResultSet]):
    """Short-form result sets keyed on the canonical search expression."""

    def __init__(self, capacity: int = DEFAULT_SEARCH_CAPACITY) -> None:
        super().__init__(capacity)


class RetrieveCache(LruCache[Document]):
    """Long-form documents keyed by docid."""

    def __init__(self, capacity: int = DEFAULT_RETRIEVE_CAPACITY) -> None:
        super().__init__(capacity)


class GatewayCache:
    """The client-facing pair of caches plus version-based invalidation.

    The cache remembers the last data version it served under; when
    :meth:`validate` observes a different version (the document store
    mutated, or the client was pointed at another server), both caches
    are dropped wholesale.  Versions are compared for *inequality*, not
    order, so swapping between two servers also invalidates.

    The version key may be any hashable value.  Bare integers work, but
    they are unsafe across backends: two different servers can publish
    the same numeric ``data_version``, so an A→B swap (or A→B→A with
    equal counts) would serve A's entries for B.  Clients therefore
    validate with the server's ``data_fingerprint`` — a
    ``(store uid, version)`` pair (or a tuple of per-shard pairs on a
    sharded service) — whenever the server publishes one.

    **Concurrency.**  Validation is a check-then-act on the observed
    version, so it runs under its own lock: of two threads observing
    the same version bump, exactly one flushes (and records the
    invalidation) — unlocked, both could flush, double-counting
    invalidations, or one could swap ``_seen_version`` forward while
    the other still races the flush.  Cache *fills* are version-stamped
    (:meth:`put_search` / :meth:`put_retrieve`): a result fetched under
    version ``v`` is dropped instead of inserted when the observed
    version has moved past ``v`` by fill time, so a slow fetch can
    never plant a stale entry behind a newer validation.
    """

    def __init__(
        self,
        search_capacity: int = DEFAULT_SEARCH_CAPACITY,
        retrieve_capacity: int = DEFAULT_RETRIEVE_CAPACITY,
    ) -> None:
        self.search = SearchCache(search_capacity)
        self.retrieve = RetrieveCache(retrieve_capacity)
        self._lock = threading.Lock()
        self._seen_version: Optional[Any] = None
        #: Cross-ticket single-flight: concurrent clients missing the
        #: same search wait on one dispatch instead of each sending
        #: their own (the cache alone deduplicates *storage*, not
        #: in-flight work).  Zero window; a serving layer that wants a
        #: batch window hands its clients its own table instead.
        self.inflight = InflightSearchTable()
        #: How many lookups were served by joining another ticket's
        #: in-flight search rather than by a cache entry or own dispatch.
        self.coalesced = 0

    def validate(self, data_version: Any) -> bool:
        """Drop everything if the backing data moved; True when still valid.

        Atomic: the stale check, the flush of both caches, and the
        version swap form one step under the validator lock.
        """
        with self._lock:
            if self._seen_version == data_version:
                return True
            stale = self._seen_version is not None
            if stale:
                # Each cache records its own invalidation only when it
                # actually held entries to drop — an empty cache was not
                # invalidated in any observable sense.
                if len(self.search):
                    self.search.stats.invalidations += 1
                if len(self.retrieve):
                    self.retrieve.stats.invalidations += 1
                self.search.clear()
                self.retrieve.clear()
            self._seen_version = data_version
            return not stale

    def put_search(self, expression: str, result: Any, data_version: Any) -> bool:
        """Insert a search result fetched under ``data_version``.

        Returns False (and inserts nothing) when the observed version
        has moved since the fetch began — the result describes data
        that no longer exists, and caching it would serve stale answers
        under the *new* version.
        """
        with self._lock:
            if self._seen_version != data_version:
                return False
            self.search.put(expression, result)
            return True

    def put_retrieve(self, docid: str, document: Any, data_version: Any) -> bool:
        """Insert a long-form document fetched under ``data_version``
        (dropped when the observed version has moved — see
        :meth:`put_search`)."""
        with self._lock:
            if self._seen_version != data_version:
                return False
            self.retrieve.put(docid, document)
            return True

    def note_coalesced(self, count: int = 1) -> None:
        """Count ``count`` lookups answered by joining an in-flight search."""
        with self._lock:
            self.coalesced += count

    @property
    def hits(self) -> int:
        return self.search.stats.hits + self.retrieve.stats.hits

    @property
    def misses(self) -> int:
        return self.search.stats.misses + self.retrieve.stats.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly statistics for reports and the bench harness."""
        return {
            "search": self.search.stats.as_dict(),
            "retrieve": self.retrieve.stats.as_dict(),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "coalesced": self.coalesced,
            "entries": len(self.search) + len(self.retrieve),
        }

    def __repr__(self) -> str:
        return (
            f"GatewayCache(search={len(self.search)}, "
            f"retrieve={len(self.retrieve)}, hit_rate={self.hit_rate:.0%})"
        )
