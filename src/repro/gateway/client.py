"""The metered text-system client (the foreign-function gateway).

Every database-side access to the external text system goes through
:class:`TextClient`, which forwards the call to its
:class:`~repro.textsys.source.TextSource` and charges the corresponding
cost into a :class:`~repro.gateway.costs.CostLedger`.  The client also
republishes the source's capability record (``document_count``,
``term_limit``, ``batch_limit``, ``source_kind``, ``field_names``,
``short_fields``), its ``data_version`` and planning's two unmetered
statistics reads (``document_frequencies``, ``statistics_search``), so
planning and execution code never reaches past it.

This is the reproduction's substitute for the paper's live network link
between OpenODB and the CMU Mercury server: instead of paying real
seconds per connection, the ledger accumulates *simulated* seconds using
the constants the paper calibrated on that link.

Three optional layers ride on the gateway:

- a :class:`~repro.gateway.cache.GatewayCache`: repeated searches and
  long-form retrievals are answered locally.  A hit charges *nothing*
  into the ledger; the avoided cost accumulates in
  ``ledger.seconds_saved``.  Entries are dropped wholesale whenever the
  server's ``data_version`` moves, so staleness is impossible.  Without
  a cache (the default) the client's accounting is bit-identical to the
  uncached gateway.
- an :class:`~repro.gateway.inflight.InflightSearchTable`: searches the
  cache could not answer are coalesced with identical searches other
  clients have in flight.  A cache brings its own zero-window table; a
  serving layer hands every client one shared (possibly windowed)
  table.  The table only returns answers — this client settles each one
  at its as-if-alone price: a *joined* answer is a cache hit when there
  is a cache, and is charged in full plus credited to
  ``ledger.seconds_shared`` when there is none.  With neither a cache
  nor a table every search is dispatched directly.
- a :class:`~repro.gateway.tracing.CallTracer`: every search, probe,
  batch, retrieval and statistics read becomes a span labelled with the
  current execution phase (scan/probe/TS/SJ-batch/RTP).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import GatewayError
from repro.gateway.cache import CacheStats, GatewayCache
from repro.gateway.costs import CostConstants, CostLedger
from repro.gateway.inflight import InflightSearchTable
from repro.gateway.tracing import CallTracer
from repro.textsys.documents import Document
from repro.textsys.parser import parse_search
from repro.textsys.query import SearchNode
from repro.textsys.result import ResultSet
from repro.textsys.source import TextSource

__all__ = ["TextClient"]


class TextClient:
    """Search/retrieve access to the text server with cost accounting.

    What the client was given decides how a search is settled, not a
    mode switch: a cached entry is a hit; a search joined to an
    identical one in the ``inflight`` table (the one passed, else the
    cache's own) is a hit with a cache and charged-alone plus
    ``seconds_shared`` without; anything else is dispatched and
    charged.  The ledger — and with it any budget — is only ever
    touched from the calling thread.
    """

    def __init__(
        self,
        server: TextSource,
        constants: Optional[CostConstants] = None,
        cache: Optional[GatewayCache] = None,
        tracer: Optional[CallTracer] = None,
        ledger: Optional[CostLedger] = None,
        cache_stats: Optional[CacheStats] = None,
        inflight: Optional[InflightSearchTable] = None,
    ) -> None:
        self.server = server
        #: An explicit ``ledger`` lets several clients charge one shared
        #: (thread-safe) ledger — the serving front-end accumulates every
        #: query a tenant runs into that tenant's budgeted ledger this
        #: way.  When given, it wins over ``constants``.
        self.ledger = (
            ledger
            if ledger is not None
            else CostLedger(constants=constants or CostConstants())
        )
        self.cache = cache
        #: An optional caller-owned sink for this client's cache
        #: outcomes.  The shared cache's own statistics aggregate over
        #: every client; the serving layer passes each tenant's
        #: :class:`CacheStats` here so hit rates attribute per tenant
        #: (safe unlocked: the admission queue runs one query per
        #: tenant at a time).
        self.cache_stats = cache_stats
        #: The in-flight table searches are coalesced through: the one
        #: handed in (a serving layer shares a single table across every
        #: client), else the cache's own zero-window table, else none —
        #: and then every search is dispatched directly.
        self.inflight = inflight
        if inflight is None and cache is not None:
            self.inflight = cache.inflight
        self.tracer = tracer if tracer is not None else CallTracer(enabled=False)

    # ------------------------------------------------------------------
    # tracing support
    # ------------------------------------------------------------------
    def trace_phase(self, label: str):
        """Context manager: attribute foreign calls inside to ``label``."""
        return self.tracer.phase(label)

    def _settle_transport(self) -> None:
        """Drain the source's retry waste and transport events.

        Behind a :class:`~repro.remote.transport.RemoteTextTransport`,
        failed attempts' wire time and backoff pauses accumulate there;
        this moves them into the ledger's ``seconds_retried`` side
        channel and records each retry/breaker event as a traced span.
        An in-process server drains ``(0.0, ())`` — accounting stays
        bit-identical.
        """
        wasted, events = self.server.drain_accounting()
        if wasted:
            self.ledger.charge_retry_waste(wasted)
        if self.tracer.enabled:
            for event in events:
                self.tracer.record(
                    event.kind,
                    event.detail,
                    result_size=0,
                    postings_processed=0,
                    cost=0.0,
                )

    def _note_cache(self, hit: bool) -> None:
        """Attribute one cache outcome to the caller's sink, if any."""
        if self.cache_stats is None:
            return
        if hit:
            self.cache_stats.hits += 1
        else:
            self.cache_stats.misses += 1

    def _wants_expression(self) -> bool:
        return self.cache is not None or self.tracer.enabled

    def _canonical(
        self, query: Union[SearchNode, str]
    ) -> Tuple[Union[SearchNode, str], Optional[str]]:
        """The cache/trace key: the canonical rendering of the search.

        Strings are parsed so that ``"TI='belief'"`` and the equivalent
        :class:`~repro.textsys.query.TermQuery` share one cache entry.
        Only computed when a cache or an enabled tracer needs it.
        """
        if not self._wants_expression():
            return query, None
        if isinstance(query, str):
            query = parse_search(query)
        return query, query.to_expression()

    def _data_version(self):
        """The cache-validation key: the source's ``data_fingerprint``
        (a ``(store uid, version)`` pair cannot collide across backends
        the way bare version counters do)."""
        return self.server.data_fingerprint

    # ------------------------------------------------------------------
    # the two foreign operations
    # ------------------------------------------------------------------
    def search(self, query: Union[SearchNode, str]) -> ResultSet:
        """Send one search; returns the short-form result set.

        Charges ``c_i + c_p * postings + c_s * |result|`` — unless the
        gateway cache already holds the canonical expression, in which
        case nothing is charged and the avoided cost is credited to
        ``ledger.seconds_saved``.
        """
        return self._metered_search(query, kind="search")

    def _serve_cached(
        self, kind: str, expression: Optional[str], cached: ResultSet
    ) -> ResultSet:
        """Account one search answered without a dispatch (hit/coalesce)."""
        saved = self.ledger.constants.search_cost(
            cached.postings_processed, len(cached)
        )
        self.ledger.credit_saved(saved)
        self._note_cache(hit=True)
        self.tracer.record(
            kind,
            expression,
            result_size=len(cached),
            postings_processed=cached.postings_processed,
            cost=0.0,
            saved=saved,
            cache_hit=True,
        )
        return cached

    def _credit_shared(self, seconds: float) -> None:
        """Record the backend work a cache-less joined search avoided."""
        self.ledger.credit_shared(seconds)
        self.inflight.stats.on_join(seconds)

    def _metered_search(self, query: Union[SearchNode, str], kind: str) -> ResultSet:
        query, expression = self._canonical(query)
        version = None
        if self.cache is not None:
            version = self._data_version()
            self.cache.validate(version)
            cached = self.cache.search.get(expression)
            if cached is not None:
                return self._serve_cached(kind, expression, cached)
        joined = False
        try:
            if self.inflight is None:
                result = self.server.search(query)
            else:
                ((result, joined),) = self.inflight.fetch(
                    self.server, [query], self.cache, [expression], version
                )
        finally:
            self._settle_transport()
        if self.cache is not None:
            if joined:
                self.cache.note_coalesced()
                return self._serve_cached(kind, expression, result)
            self._note_cache(hit=False)
        cost = self.ledger.charge_search(result.postings_processed, len(result))
        if joined:
            self._credit_shared(cost)
        if self.tracer.enabled:
            self.tracer.record(
                kind,
                expression,
                result_size=len(result),
                postings_processed=result.postings_processed,
                cost=cost,
            )
        return result

    def search_batch(self, queries) -> List[ResultSet]:
        """Send many searches in ONE invocation (Section 8's proposal).

        Requires a source that publishes a ``batch_limit``.  Charges a
        single ``c_i`` for the whole batch plus the usual processing and
        short-form transmission for every query's answer.  With a cache,
        only the missing queries travel; if every query hits, the whole
        invocation (including ``c_i``) is saved.  A batch may repeat the
        same instantiated conjunct (SJ batches routinely do): through
        the in-flight table each distinct search travels once and the
        repeats join it.
        """
        if self.server.batch_limit is None:
            raise GatewayError(
                "the text source does not take batched invocations "
                "(it publishes batch_limit=None)"
            )
        queries = list(queries)
        if self.inflight is None:
            try:
                results = self.server.search_batch(queries)
            finally:
                self._settle_transport()
            postings = sum(result.postings_processed for result in results)
            returned = sum(len(result) for result in results)
            cost = self.ledger.charge_search(postings, returned)
            self.tracer.record(
                "batch",
                f"<batch of {len(queries)}>",
                result_size=returned,
                postings_processed=postings,
                cost=cost,
            )
            return results

        expressions: List[Optional[str]] = [None] * len(queries)
        results: List[Optional[ResultSet]] = [None] * len(queries)
        misses = list(range(len(queries)))
        version = None
        if self.cache is not None:
            version = self._data_version()
            self.cache.validate(version)
            canonical = [self._canonical(query) for query in queries]
            queries = [query for query, _ in canonical]
            expressions = [expression for _, expression in canonical]
            for index, expression in enumerate(expressions):
                results[index] = self.cache.search.get(expression)
            misses = [index for index in misses if results[index] is None]

        joined = set()
        if misses:
            try:
                fetched = self.inflight.fetch(
                    self.server,
                    [queries[index] for index in misses],
                    self.cache,
                    [expressions[index] for index in misses],
                    version,
                )
            finally:
                self._settle_transport()
            for index, (result, was_joined) in zip(misses, fetched):
                results[index] = result
                if was_joined:
                    joined.add(index)

        # Settle as if alone.  Without a cache the whole batch is
        # charged (one c_i plus every answer) and each joined answer's
        # share is credited to ``seconds_shared``.  With one, only the
        # answers dispatched for this client are charged; hits and
        # joined answers are saved, plus the invocation itself when
        # nothing travelled on this client's behalf.
        constants = self.ledger.constants
        paid = misses
        if self.cache is not None:
            paid = [index for index in misses if index not in joined]
        cost = 0.0
        if paid:
            cost = self.ledger.charge_search(
                sum(results[index].postings_processed for index in paid),
                sum(len(results[index]) for index in paid),
            )
        saved = 0.0
        if self.cache is None:
            for index in joined:
                result = results[index]
                self._credit_shared(
                    constants.answer_cost(result.postings_processed, len(result))
                )
        else:
            if joined:
                self.cache.note_coalesced(len(joined))
            dispatched = set(paid)
            for index, result in enumerate(results):
                hit = index not in dispatched
                self._note_cache(hit=hit)
                if hit:
                    saved += constants.answer_cost(
                        result.postings_processed, len(result)
                    )
            if not paid:
                saved += constants.invocation
            if saved:
                self.ledger.credit_saved(saved)
        self.tracer.record(
            "batch",
            f"<batch of {len(queries)}>",
            result_size=sum(len(result) for result in results),
            postings_processed=sum(result.postings_processed for result in results),
            cost=cost,
            saved=saved,
            cache_hit=self.cache is not None and not paid,
        )
        return results

    def retrieve(self, docid: str) -> Document:
        """Fetch one long-form document; charges ``c_l`` (0 on a cache hit)."""
        return self.retrieve_many([docid])[0]

    def retrieve_many(self, docids: Iterable[str]) -> List[Document]:
        """Fetch several long forms, one retrieval (and one ``c_l``) each.

        Duplicate docids are fetched — and charged — only once: the
        returned list carries one :class:`Document` per *distinct*
        requested docid, in first-occurrence order.

        Several cache-missing docids travel as ONE ``retrieve_many``
        call (remote and sharded transports dispatch it over their
        worker pools, so the fetches overlap on the wire); per-docid
        charges, cache fills, and traced spans are identical to fetching
        one at a time.  If the call fails, nothing is charged.
        """
        wanted = list(dict.fromkeys(docids))
        documents: Dict[str, Document] = {}
        misses = wanted
        version = None
        if self.cache is not None:
            version = self._data_version()
            self.cache.validate(version)
            misses = []
            for docid in wanted:
                cached = self.cache.retrieve.get(docid)
                self._note_cache(hit=cached is not None)
                if cached is None:
                    misses.append(docid)
                    continue
                saved = self.ledger.constants.long_form
                self.ledger.credit_saved(saved)
                self.tracer.record(
                    "retrieve",
                    docid,
                    result_size=1,
                    postings_processed=0,
                    cost=0.0,
                    saved=saved,
                    cache_hit=True,
                )
                documents[docid] = cached
        if misses:
            try:
                if len(misses) == 1:
                    fetched = [self.server.retrieve(misses[0])]
                else:
                    fetched = self.server.retrieve_many(misses)
            finally:
                self._settle_transport()
            for docid, document in zip(misses, fetched):
                cost = self.ledger.charge_retrieve()
                if self.cache is not None:
                    self.cache.put_retrieve(docid, document, version)
                if self.tracer.enabled:
                    self.tracer.record(
                        "retrieve",
                        docid,
                        result_size=1,
                        postings_processed=0,
                        cost=cost,
                    )
                documents[docid] = document
        return [documents[docid] for docid in wanted]

    # ------------------------------------------------------------------
    # probing and RTP support
    # ------------------------------------------------------------------
    def probe(self, query: Union[SearchNode, str]) -> bool:
        """Send a probe: a search whose only use is "any matches?".

        A probe is an ordinary short-form search (Section 3.3: "requiring
        the text system to return only the information whether there are
        any matching documents ... by requesting the short form
        response"), so it is charged exactly like :meth:`search`.
        """
        return not self._metered_search(query, kind="probe").is_empty

    def charge_rtp(self, document_count: int) -> float:
        """Account for SQL string matching over ``document_count`` documents."""
        return self.ledger.charge_rtp(document_count)

    # ------------------------------------------------------------------
    # published meta information
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        """``D``, the collection size."""
        return self.server.document_count

    @property
    def term_limit(self) -> int:
        """``M``, the per-search basic-term limit."""
        return self.server.term_limit

    @property
    def source_kind(self) -> str:
        """The backend's predicate semantics: ``"boolean"`` or ``"vector"``.

        The optimizer's method-legality check reads this — probe-based
        methods are sound only against ``"boolean"`` sources (Section 8).
        """
        return self.server.source_kind

    @property
    def batch_limit(self) -> Optional[int]:
        """Searches per batched invocation; ``None`` = no batching."""
        return self.server.batch_limit

    @property
    def field_names(self) -> Tuple[str, ...]:
        """The collection's text fields."""
        return self.server.field_names

    @property
    def short_fields(self) -> Tuple[str, ...]:
        """The fields short-form answers carry (what RTP can match on)."""
        return self.server.short_fields

    @property
    def data_version(self) -> int:
        """The source's mutation counter, read fresh."""
        return self.server.data_version

    def document_frequencies(self, field: str, terms: Sequence[str]) -> List[int]:
        """Directory read: how many documents hold each term in ``field``.

        Planning traffic (Section 8's published statistics): nothing is
        charged and no budget consulted.  The whole list is one settle
        and one ``"stats"`` span.
        """
        frequency = self.server.document_frequency
        try:
            frequencies = [frequency(field, term) for term in terms]
        finally:
            self._settle_transport()
        expression = f"<{len(terms)} document frequencies in {field}>"
        self.tracer.record("stats", expression, len(terms), 0, cost=0.0)
        return frequencies

    def statistics_search(self, query: Union[SearchNode, str]) -> ResultSet:
        """One *unmetered*, uncached search, for what the directory cannot
        answer (a selection conjunction, a phrase value): charged to
        nobody, but settled and traced (``"stats"``) like any call."""
        query, expression = self._canonical(query)
        try:
            result = self.server.search(query)
        finally:
            self._settle_transport()
        self.tracer.record(
            "stats", expression, len(result), result.postings_processed, cost=0.0
        )
        return result

    def reset_accounting(self, include_cache_stats: bool = False) -> None:
        """Zero the ledger and the trace (server counters and cache kept).

        By default the gateway cache's hit/miss statistics survive a
        reset — they describe the cache, not this client's accounting
        period, and several harnesses read them across resets.  Pass
        ``include_cache_stats=True`` to zero them too (the cached
        *entries* are always kept; only the counters reset).
        """
        self.ledger.reset()
        self.tracer.clear()
        if include_cache_stats and self.cache is not None:
            self.cache.search.stats.reset()
            self.cache.retrieve.stats.reset()
