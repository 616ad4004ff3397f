"""Scatter-gather routing over a sharded text service.

:class:`ShardedTextTransport` presents the
:class:`~repro.textsys.source.TextSource` contract over N corpus
shards, each served by its own
:class:`~repro.remote.transport.RemoteTextTransport` (its own channel,
retry policy and circuit breaker), so it drops into a
:class:`~repro.gateway.client.TextClient` exactly like a single remote
server:

- **searches scatter**: the expression goes to every shard concurrently
  and the per-shard result sets are merged by
  :meth:`~repro.textsys.sharding.ShardedCorpus.merge_results`, which
  restores the single-server docid ordering and sums the per-shard
  ``postings_processed`` counts — so the gateway charges exactly what
  it would have charged against the unsharded server and
  ``CostLedger.total`` stays bit-identical;
- **retrievals route**: a docid travels only to the shard that owns it,
  which is where the wall-clock win lives — a ``retrieve_many`` over N
  shards splits into N concurrent per-shard frame streams;
- **failover**: each shard may carry replicas; when the primary's
  transport gives up (retries exhausted, or its circuit breaker refuses
  the call outright), the same call is replayed against the next
  replica and the failover is recorded as a drainable event.  The
  primary's breaker keeps probing in the background of later calls, so
  a recovered primary is readopted automatically.

The merged published view keeps downstream layers working unchanged.
The static capability record is merged once, through the same
failover-aware scatter as every other call, and then served from
memory: ``document_count`` is the sum over shards, ``term_limit`` and
``batch_limit`` the minimum, the rest uniform by construction.  What
moves is scattered fresh on every read: ``data_version`` is the sum of
the shard versions (monotone — any shard mutation moves it), and
``data_fingerprint`` is the tuple of per-shard fingerprints, which is
what :class:`~repro.gateway.cache.GatewayCache` validates against.
``counters`` is a live merged view over every shard server (replicas
included) that supports the usual ``snapshot``/``as_dict``/``-`` diffs.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CircuitOpenError, GatewayError, TransportError
from repro.remote.resilience import CircuitBreaker, RetryPolicy
from repro.remote.transport import RemoteTextTransport, TransportEvent, TransportStats
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.parser import parse_search
from repro.textsys.query import SearchNode
from repro.textsys.result import ResultSet
from repro.textsys.server import BooleanTextServer, ServerCounters
from repro.textsys.sharding import ShardedCorpus, merge_scored_results, partition_store
from repro.textsys.source import DEFAULT_TERM_LIMIT, check_batch
from repro.textsys.vector import VectorQuery, VectorStatistics
from repro.textsys.vectorserver import VectorTextServer

__all__ = [
    "ShardBackend",
    "MergedServerCounters",
    "ShardedTextTransport",
    "build_sharded_transport",
]


class ShardBackend:
    """One shard's primary transport plus its ordered failover chain."""

    def __init__(
        self,
        shard_id: int,
        primary: RemoteTextTransport,
        replicas: Sequence[RemoteTextTransport] = (),
    ) -> None:
        self.shard_id = shard_id
        self.primary = primary
        self.replicas = list(replicas)
        self.failovers = 0

    @property
    def transports(self) -> List[RemoteTextTransport]:
        return [self.primary] + self.replicas


class MergedServerCounters:
    """A live sum over every shard server's :class:`ServerCounters`.

    Reads aggregate on access (the parts keep mutating underneath);
    ``snapshot`` materialises a plain :class:`ServerCounters`, so the
    usual ``(after - before).as_dict()`` reporting idiom keeps working.
    """

    def __init__(self, parts: Sequence[ServerCounters]) -> None:
        self._parts = list(parts)

    @property
    def searches(self) -> int:
        return sum(part.searches for part in self._parts)

    @property
    def postings_processed(self) -> int:
        return sum(part.postings_processed for part in self._parts)

    @property
    def short_documents(self) -> int:
        return sum(part.short_documents for part in self._parts)

    @property
    def long_documents(self) -> int:
        return sum(part.long_documents for part in self._parts)

    def reset(self) -> None:
        for part in self._parts:
            part.reset()

    def snapshot(self) -> ServerCounters:
        return ServerCounters(
            searches=self.searches,
            postings_processed=self.postings_processed,
            short_documents=self.short_documents,
            long_documents=self.long_documents,
        )

    def as_dict(self) -> Dict[str, int]:
        return self.snapshot().as_dict()

    def __sub__(self, earlier: Any) -> ServerCounters:
        if isinstance(earlier, MergedServerCounters):
            earlier = earlier.snapshot()
        return self.snapshot() - earlier

    def __repr__(self) -> str:
        return f"MergedServerCounters({self.as_dict()})"


#: One scatter job: a backend plus the operation to run on a transport.
_Job = Tuple[ShardBackend, Callable[[RemoteTextTransport], Any]]


class ShardedTextTransport:
    """The text-server API scatter-gathered across shard transports."""

    def __init__(
        self, corpus: ShardedCorpus, backends: Sequence[ShardBackend]
    ) -> None:
        if len(backends) != corpus.shard_count:
            raise GatewayError(
                f"{corpus.shard_count} shards need {corpus.shard_count} "
                f"backends, got {len(backends)}"
            )
        self.corpus = corpus
        self.backends = list(backends)
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pending_events: List[TransportEvent] = []
        self._capabilities: Optional[Dict[str, Any]] = None

    @property
    def counters(self) -> MergedServerCounters:
        """Every shard server's usage counters, summed (out of band)."""
        return MergedServerCounters(
            [
                transport.counters
                for backend in self.backends
                for transport in backend.transports
            ]
        )

    @property
    def profile(self):
        return self.backends[0].primary.profile

    @property
    def shard_count(self) -> int:
        return len(self.backends)

    @property
    def replica_count(self) -> int:
        """Replicas per shard (uniform by construction)."""
        return len(self.backends[0].replicas)

    @property
    def failovers(self) -> int:
        return sum(backend.failovers for backend in self.backends)

    # ------------------------------------------------------------------
    # published meta information (merged across shards)
    # ------------------------------------------------------------------
    def _merged(self) -> Dict[str, Any]:
        """The static capability record, merged once over live shards.

        Built through :meth:`_scatter_all` so a dead primary's replica
        answers, like for any other call; every shard transport caches
        its own record, so later reads cost no wire frame and no pool
        hop.
        """
        if self._capabilities is None:
            shards = self._scatter_all(
                lambda transport: {
                    "document_count": transport.document_count,
                    "term_limit": transport.term_limit,
                    "batch_limit": transport.batch_limit,
                    "source_kind": transport.source_kind,
                    "field_names": transport.field_names,
                    "short_fields": transport.short_fields,
                }
            )
            self._capabilities = dict(
                shards[0],
                document_count=sum(s["document_count"] for s in shards),
                term_limit=min(s["term_limit"] for s in shards),
                batch_limit=min(s["batch_limit"] for s in shards),
            )
        return self._capabilities

    @property
    def document_count(self) -> int:
        return self._merged()["document_count"]

    @property
    def term_limit(self) -> int:
        return self._merged()["term_limit"]

    @property
    def batch_limit(self) -> int:
        return self._merged()["batch_limit"]

    @property
    def source_kind(self) -> str:
        return self._merged()["source_kind"]

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self._merged()["field_names"]

    @property
    def short_fields(self) -> Tuple[str, ...]:
        return self._merged()["short_fields"]

    @property
    def data_version(self) -> int:
        """Monotone merged version: the sum of the shard versions."""
        return sum(self._scatter_all(lambda transport: transport.data_version))

    @property
    def data_fingerprint(self) -> Tuple[Any, ...]:
        """The tuple of per-shard fingerprints (collision-free)."""
        return tuple(
            self._scatter_all(lambda transport: transport.data_fingerprint)
        )

    # ------------------------------------------------------------------
    # the foreign operations
    # ------------------------------------------------------------------
    def search(self, query: Union[SearchNode, str]) -> ResultSet:
        if isinstance(query, str):
            query = parse_search(query)
        partials = self._scatter_all(
            lambda transport, query=query: transport.search(query)
        )
        return self._merge(query, partials)

    def search_batch(
        self, queries: Sequence[Union[SearchNode, str]]
    ) -> List[ResultSet]:
        """Scatter the whole batch to every shard, merge per query."""
        parsed = [
            parse_search(query) if isinstance(query, str) else query
            for query in queries
        ]
        check_batch(len(parsed), self.batch_limit)
        per_shard = self._scatter_all(
            lambda transport, parsed=parsed: transport.search_batch(parsed)
        )
        return [
            self._merge(query, [answers[position] for answers in per_shard])
            for position, query in enumerate(parsed)
        ]

    def retrieve(self, docid: str) -> Document:
        backend = self.backends[self.corpus.shard_of(docid)]
        return self._on_backend(
            backend, lambda transport, docid=docid: transport.retrieve(docid)
        )

    def retrieve_many(self, docids: Sequence[str]) -> List[Document]:
        """Route docids to their shards, fetch the groups concurrently."""
        wanted = list(docids)
        if not wanted:
            return []
        groups: Dict[int, List[Tuple[int, str]]] = {}
        for position, docid in enumerate(wanted):
            groups.setdefault(self.corpus.shard_of(docid), []).append(
                (position, docid)
            )
        jobs: List[_Job] = []
        placements: List[List[int]] = []
        for shard_id in sorted(groups):
            entries = groups[shard_id]
            shard_docids = [docid for _, docid in entries]
            jobs.append(
                (
                    self.backends[shard_id],
                    lambda transport, shard_docids=shard_docids: (
                        transport.retrieve_many(shard_docids)
                    ),
                )
            )
            placements.append([position for position, _ in entries])
        fetched = self._scatter(jobs)
        documents: List[Optional[Document]] = [None] * len(wanted)
        for positions, shard_documents in zip(placements, fetched):
            for position, document in zip(positions, shard_documents):
                documents[position] = document
        return documents  # type: ignore[return-value]

    def document_frequency(self, field_name: str, term: str) -> int:
        """Shards partition the collection, so frequencies sum exactly."""
        return sum(
            self._scatter_all(
                lambda transport: transport.document_frequency(field_name, term)
            )
        )

    # ------------------------------------------------------------------
    # accounting drain (pulled by the metered client)
    # ------------------------------------------------------------------
    def drain_accounting(self) -> Tuple[float, List[TransportEvent]]:
        """Aggregate every shard transport's pending waste and events,
        plus the router's own failover events."""
        with self._lock:
            events = self._pending_events
            self._pending_events = []
        waste = 0.0
        for backend in self.backends:
            for transport in backend.transports:
                shard_waste, shard_events = transport.drain_accounting()
                waste += shard_waste
                events.extend(shard_events)
        return waste, events

    @property
    def stats(self) -> TransportStats:
        """The element-wise sum of every shard transport's stats."""
        total = TransportStats()
        for backend in self.backends:
            for transport in backend.transports:
                stats = transport.stats
                total.calls += stats.calls
                total.attempts += stats.attempts
                total.retries += stats.retries
                total.failures += stats.failures
                total.frames_sent += stats.frames_sent
                total.breaker_trips += stats.breaker_trips
                total.seconds_retried += stats.seconds_retried
                total.wall_seconds += stats.wall_seconds
        return total

    def report(self) -> Dict[str, Any]:
        """JSON-friendly scatter-gather report (totals plus per shard)."""
        return {
            "shards": self.shard_count,
            "replicas_per_shard": self.replica_count,
            "scheme": self.corpus.scheme,
            "failovers": self.failovers,
            "totals": self.stats.as_dict(),
            "per_shard": [
                {
                    "shard": backend.shard_id,
                    "documents": len(self.corpus.stores[backend.shard_id]),
                    "failovers": backend.failovers,
                    "breaker_state": backend.primary.breaker.state,
                    "frames_sent": backend.primary.stats.frames_sent,
                    "seconds_retried": round(
                        backend.primary.stats.seconds_retried, 6
                    ),
                }
                for backend in self.backends
            ],
        }

    def close(self) -> None:
        """Shut every shard transport and the scatter pool down."""
        for backend in self.backends:
            for transport in backend.transports:
                transport.close()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        profile = getattr(self.profile, "name", "loopback")
        return (
            f"ShardedTextTransport({self.shard_count} shards x "
            f"{1 + self.replica_count} servers, {profile}, "
            f"scheme={self.corpus.scheme}, failovers={self.failovers})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _merge(self, query: Any, partials: List[ResultSet]) -> ResultSet:
        """Merge per-shard answers with the query's own semantics.

        Boolean results restore the single-server docid ordering
        (:meth:`ShardedCorpus.merge_results`); ranked results re-sort by
        ``(-score, docid)`` and re-truncate to the *global* top-k — each
        shard already ranked locally, and the global top-k is a subset
        of the union of the shard top-ks, so local truncation loses
        nothing.
        """
        if isinstance(query, VectorQuery):
            return merge_scored_results(partials, query.top_k)
        return self.corpus.merge_results(partials)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=len(self.backends),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def _on_backend(
        self,
        backend: ShardBackend,
        operation: Callable[[RemoteTextTransport], Any],
    ) -> Any:
        """Run one operation with failover down the backend's chain.

        Only transport-level unavailability fails over — retries
        exhausted (:class:`TransportError`) or the breaker refusing the
        call (:class:`CircuitOpenError`).  Server-side semantic errors
        (term limit, unknown docid, ...) are identical on every replica
        and propagate untouched.
        """
        last_error: Optional[Exception] = None
        for transport in backend.transports:
            if last_error is not None:
                with self._lock:
                    backend.failovers += 1
                    self._pending_events.append(
                        TransportEvent(
                            "failover",
                            f"shard {backend.shard_id}: primary unavailable "
                            f"({last_error}); replica serving",
                        )
                    )
            try:
                return operation(transport)
            except (TransportError, CircuitOpenError) as exc:
                last_error = exc
        raise last_error  # type: ignore[misc]

    def _scatter(self, jobs: Sequence[_Job]) -> List[Any]:
        """Run the jobs, concurrently when there is more than one."""
        if len(jobs) <= 1:
            return [self._on_backend(backend, operation) for backend, operation in jobs]
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._on_backend, backend, operation)
            for backend, operation in jobs
        ]
        return [future.result() for future in futures]

    def _scatter_all(
        self, operation: Callable[[RemoteTextTransport], Any]
    ) -> List[Any]:
        return self._scatter([(backend, operation) for backend in self.backends])


def build_sharded_transport(
    server_or_store: Any,
    shards: int,
    *,
    replicas: int = 0,
    scheme: str = "hash",
    profile: Union[str, Any] = "wan",
    seed: int = 0,
    time_scale: float = 1.0,
    retry: Optional[RetryPolicy] = None,
    breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
    pool_size: int = 1,
    batch_frame_size: int = 4,
    batch_limit: Optional[int] = None,
    term_limit: Optional[int] = None,
    engine_mode: Optional[str] = None,
) -> ShardedTextTransport:
    """Partition a corpus and stand up the whole sharded service.

    Accepts either an in-process server (whose store, term limit and
    engine mode the shard servers inherit) or a bare
    :class:`~repro.textsys.documents.DocumentStore`.  Every shard gets
    ``1 + replicas`` servers over its shard store, each behind its own
    fault-injecting channel (deterministically distinct seeds derived
    from ``seed``), retry policy, and circuit breaker.
    """
    if replicas < 0:
        raise GatewayError("replicas must be non-negative")
    source = None if isinstance(server_or_store, DocumentStore) else server_or_store
    store = server_or_store if source is None else source.store
    ranked = source is not None and source.source_kind == "vector"
    if term_limit is None:
        term_limit = DEFAULT_TERM_LIMIT if source is None else source.term_limit
    if engine_mode is None and source is not None and not ranked:
        # Shards inherit the source server's engine so the deployment
        # change never swaps evaluation kernels underneath the caller.
        engine_mode = source.engine_mode
    corpus = partition_store(store, shards, scheme=scheme)
    if ranked:
        # Vector shards must score with *global* collection statistics
        # (idf, document norms) so per-shard rankings merge into exactly
        # the unsharded ranking: measured once on the source corpus,
        # injected into every shard server.
        statistics = VectorStatistics.for_store(store, source.field)
    backends: List[ShardBackend] = []
    for shard_id, shard_store in enumerate(corpus.stores):
        shard_transports: List[RemoteTextTransport] = []
        for copy in range(1 + replicas):
            if ranked:
                server = VectorTextServer(
                    shard_store, source.field, term_limit, statistics
                )
            else:
                server = BooleanTextServer(shard_store, term_limit, engine_mode)
            shard_transports.append(
                RemoteTextTransport(
                    server,
                    profile=profile,
                    # Distinct, reproducible fault streams per server.
                    seed=seed + 1009 * shard_id + 499 * copy,
                    time_scale=time_scale,
                    retry=retry,
                    breaker=breaker_factory() if breaker_factory else None,
                    pool_size=pool_size,
                    batch_frame_size=batch_frame_size,
                    batch_limit=batch_limit,
                )
            )
        backends.append(
            ShardBackend(shard_id, shard_transports[0], shard_transports[1:])
        )
    return ShardedTextTransport(corpus, backends)
