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

A search is a batch of one (Section 8 prices a batched invocation as
one ``c_i``): ``search``, ``probe`` and ``search_batch`` all settle
through one path, as ``retrieve`` is ``retrieve_many`` of one docid.

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
  ``ledger.seconds_shared`` when there is none; an invocation nothing
  was dispatched for credits its ``c_i`` as well.  With neither a cache
  nor a table every search is dispatched directly.
- a :class:`~repro.gateway.tracing.CallTracer`: every search, probe,
  batch, retrieval and statistics read becomes a span labelled with the
  current execution phase (scan/probe/TS/SJ-batch/RTP).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import BudgetExceededError, GatewayError
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

Query = Union[SearchNode, str]


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

    def _note_cache(self, hits: int, misses: int) -> None:
        """Attribute cache outcomes to the caller's sink, if any."""
        if self.cache_stats is not None:
            self.cache_stats.hits += hits
            self.cache_stats.misses += misses

    def _canonical(
        self, queries: List[Query]
    ) -> Tuple[List[Query], List[Optional[str]]]:
        """The cache/trace keys: the canonical rendering of each search.

        Strings are parsed so that ``"TI='belief'"`` and the equivalent
        :class:`~repro.textsys.query.TermQuery` share one cache entry.
        Only computed when a cache or an enabled tracer needs them.
        """
        if self.cache is None and not self.tracer.enabled:
            return queries, [None] * len(queries)
        parsed = [parse_search(q) if isinstance(q, str) else q for q in queries]
        return parsed, [query.to_expression() for query in parsed]

    # ------------------------------------------------------------------
    # the two foreign operations
    # ------------------------------------------------------------------
    def search(self, query: Query) -> ResultSet:
        """Send one search; returns the short-form result set.

        Charges ``c_i + c_p * postings + c_s * |result|`` — unless the
        gateway cache already holds the canonical expression, in which
        case nothing is charged and the avoided cost is credited to
        ``ledger.seconds_saved``.
        """
        return self._settle([query], "search")[0]

    def search_batch(self, queries: Iterable[Query]) -> List[ResultSet]:
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
        return self._settle(queries, "batch", f"<batch of {len(queries)}>")

    def _settle(
        self, queries: List[Query], kind: str, label: Optional[str] = None
    ) -> List[ResultSet]:
        """Send ``queries`` as one invocation and settle it as if alone.

        Each answer is a cache hit, *joined* to an identical search in
        the in-flight table, or dispatched for this caller.  One
        ``charge_search`` (one ``c_i``) covers the dispatched answers,
        and the joined ones too when there is no cache.  Each hit or
        join is credited at its as-if-alone price — to
        ``seconds_saved`` with a cache, else to ``seconds_shared`` and
        the table's :class:`~repro.gateway.inflight.SharingStats` — and
        the ``c_i`` with it when nothing was dispatched for this caller
        (a lone search's credit is its ``search_cost``).  A search's
        span shows its expression; a batch's shows ``label``.
        """
        queries, expressions = self._canonical(queries)
        cache = self.cache
        results: List[Optional[ResultSet]] = [None] * len(queries)
        misses: Sequence[int] = range(len(queries))
        credited: List[int] = []  # hits, then joins
        version = None
        if cache is not None:
            # The fingerprint, not the bare version: a ``(store uid,
            # version)`` pair cannot collide across backends.
            version = self.server.data_fingerprint
            cache.validate(version)
            misses = []
            for index, expression in enumerate(expressions):
                results[index] = cache.search.get(expression)
                (misses if results[index] is None else credited).append(index)
        hits = len(credited)
        sent: Sequence[int] = misses
        if misses:
            try:
                if self.inflight is not None:
                    fetched = self.inflight.fetch(
                        self.server,
                        [queries[index] for index in misses],
                        cache,
                        [expressions[index] for index in misses],
                        version,
                    )
                    sent = []
                    for index, (result, joined) in zip(misses, fetched):
                        results[index] = result
                        (credited if joined else sent).append(index)
                elif len(queries) == 1:
                    results = [self.server.search(queries[0])]
                else:
                    results = self.server.search_batch(queries)
            finally:
                self._settle_transport()

        if cache is not None:
            if len(credited) > hits:
                cache.note_coalesced(len(credited) - hits)
            self._note_cache(len(credited), len(sent))
        cost = 0.0
        paid = results if cache is None else [results[index] for index in sent]
        if paid:
            postings = size = 0
            for result in paid:
                postings += result.postings_processed
                size += len(result)
            cost = self.ledger.charge_search(postings, size)
        credit = 0.0
        if credited:
            constants = self.ledger.constants
            price = constants.answer_cost if sent else constants.search_cost
            for index in credited:
                result = results[index]
                seconds = price(result.postings_processed, len(result))
                price = constants.answer_cost
                credit += seconds
                if cache is None:
                    self.inflight.stats.on_join(seconds)
            if cache is None:
                self.ledger.credit_shared(credit)
            else:
                self.ledger.credit_saved(credit)
        if self.tracer.enabled:
            self.tracer.record(
                kind,
                label or expressions[0],
                result_size=sum(len(result) for result in results),
                postings_processed=sum(r.postings_processed for r in results),
                cost=cost,
                saved=credit if cache is not None else 0.0,
                cache_hit=cache is not None and not sent,
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
        one at a time.  If the call fails, nothing is charged; if a
        budgeted ledger crosses its budget partway through the charges,
        every fetched docid is still charged before the crossing raises.
        """
        wanted = list(dict.fromkeys(docids))
        documents: Dict[str, Document] = {}
        misses = wanted
        version = None
        if self.cache is not None:
            version = self.server.data_fingerprint
            self.cache.validate(version)
            misses = []
            for docid in wanted:
                cached = self.cache.retrieve.get(docid)
                self._note_cache(int(cached is not None), int(cached is None))
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
            # Every fetched document was served, so each is charged even
            # when an earlier charge crosses a budget; the crossing is
            # re-raised once all of them are accounted for.
            exceeded: Optional[BudgetExceededError] = None
            for docid, document in zip(misses, fetched):
                try:
                    cost = self.ledger.charge_retrieve()
                except BudgetExceededError as exc:
                    exceeded = exceeded or exc
                    cost = self.ledger.constants.long_form
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
            if exceeded is not None:
                raise exceeded
        return [documents[docid] for docid in wanted]

    # ------------------------------------------------------------------
    # probing and RTP support
    # ------------------------------------------------------------------
    def probe(self, query: Query) -> bool:
        """Send a probe: a search whose only use is "any matches?".

        A probe is an ordinary short-form search (Section 3.3: "requiring
        the text system to return only the information whether there are
        any matching documents ... by requesting the short form
        response"), so it is charged exactly like :meth:`search`.
        """
        return not self._settle([query], "probe")[0].is_empty

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

    def statistics_search(self, query: Query) -> ResultSet:
        """One *unmetered*, uncached search, for what the directory cannot
        answer (a selection conjunction, a phrase value): charged to
        nobody, but settled and traced (``"stats"``) like any call."""
        (query,), (expression,) = self._canonical([query])
        try:
            result = self.server.search(query)
        finally:
            self._settle_transport()
        self.tracer.record(
            "stats", expression, len(result), result.postings_processed, cost=0.0
        )
        return result

