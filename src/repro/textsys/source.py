"""The text-source contract, declared once.

The paper integrates the database with an *external* text system through
a deliberately narrow interface (Sections 2.1 and 2.3): ``search``
(short form), ``retrieve`` (long form by docid) and whatever meta
information the system publishes.  :class:`TextSource` is that interface
as a structural :class:`typing.Protocol`.  Every source — the in-process
Boolean and vector servers, :class:`~repro.remote.transport.
RemoteTextTransport`, :class:`~repro.remote.router.ShardedTextTransport`
and any test double — satisfies it by having the members; nothing
checks it with ``isinstance``, so a ``__getattr__`` proxy around a
source is a source.

Callers read capability from the published record and never probe for
it: ``source.batch_limit is not None`` is *the* test for multi-query
invocations, ``source.source_kind`` names the predicate semantics.
Usage ``counters`` are **not** part of the contract: they are the
out-of-band view the reproduction's harnesses read next to the server.

:class:`StoreBackedSource` is the one in-process implementation of the
contract's shared half: everything a server over a
:class:`~repro.textsys.documents.DocumentStore` does the same way
whatever its query semantics.  Subclasses supply ``source_kind``,
``search`` and ``document_frequency``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.errors import SearchLimitExceeded, TextSystemError
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.result import ResultSet

__all__ = [
    "TextSource",
    "StoreBackedSource",
    "ServerCounters",
    "DEFAULT_TERM_LIMIT",
    "DEFAULT_BATCH_LIMIT",
    "check_batch",
]

#: Mercury's per-search basic-term limit (Section 3.2).
DEFAULT_TERM_LIMIT = 70

#: Maximum searches per batched invocation a transport offers unless told
#: otherwise (the bound a real protocol message would have).
DEFAULT_BATCH_LIMIT = 50


class TextSource(Protocol):
    """What the database side may use of an external text source."""

    # -- the published capability record (static for a source's life) --
    @property
    def source_kind(self) -> str:
        """Predicate semantics: ``"boolean"`` or ``"vector"``."""

    @property
    def document_count(self) -> int:
        """``D``, the size of the collection."""

    @property
    def term_limit(self) -> int:
        """``M``, the per-search basic-term limit."""

    @property
    def batch_limit(self) -> Optional[int]:
        """Searches per ``search_batch`` invocation; ``None`` when the
        source takes no multi-query invocation (Mercury)."""

    @property
    def field_names(self) -> Tuple[str, ...]:
        """The collection's text fields."""

    @property
    def short_fields(self) -> Tuple[str, ...]:
        """The fields a short-form answer carries (what RTP can see)."""

    # -- what moves: always read fresh ---------------------------------
    @property
    def data_version(self) -> int:
        """Monotone counter of collection mutations."""

    @property
    def data_fingerprint(self) -> Any:
        """A cache-validation key that cannot collide across sources."""

    # -- the foreign operations ----------------------------------------
    def search(self, query: Any) -> ResultSet:
        """One search; the short-form result set."""

    def search_batch(self, queries: Sequence[Any]) -> List[ResultSet]:
        """Many searches in one invocation, answers in query order
        (Section 8).  Raises :class:`~repro.errors.TextSystemError` on
        an empty batch or one over ``batch_limit``."""

    def retrieve(self, docid: str) -> Document:
        """One document's long form."""

    def retrieve_many(self, docids: Iterable[str]) -> List[Document]:
        """Several long forms, in request order."""

    def document_frequency(self, field: str, term: str) -> int:
        """How many documents contain ``term`` in ``field`` (meta)."""

    def drain_accounting(self) -> Tuple[float, Sequence[Any]]:
        """Pending ``(wasted simulated seconds, transport events)``,
        cleared by the call; ``(0.0, ())`` for a source with no link."""


def check_batch(size: int, batch_limit: Optional[int]) -> None:
    """The one empty/over-limit rule every ``search_batch`` applies."""
    if not size:
        raise TextSystemError("a batch must contain at least one search")
    if batch_limit is None:
        raise TextSystemError("this text source takes no batched invocations")
    if size > batch_limit:
        raise TextSystemError(
            f"batch of {size} searches exceeds the limit of {batch_limit}"
        )


@dataclass
class ServerCounters:
    """Cumulative usage counters.

    Safe to update from concurrent serving workers: the per-operation
    record methods (and ``snapshot``) hold an internal lock,
    so counts never lose increments when many tenants share one
    in-process server.
    """

    searches: int = 0
    postings_processed: int = 0
    short_documents: int = 0
    long_documents: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_search(self, postings_processed: int, short_documents: int) -> None:
        """Account one answered search atomically."""
        with self._lock:
            self.searches += 1
            self.postings_processed += postings_processed
            self.short_documents += short_documents

    def record_retrieve(self) -> None:
        """Account one long-form retrieval atomically."""
        with self._lock:
            self.long_documents += 1

    def snapshot(self) -> "ServerCounters":
        with self._lock:
            return ServerCounters(
                searches=self.searches,
                postings_processed=self.postings_processed,
                short_documents=self.short_documents,
                long_documents=self.long_documents,
            )

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly view, in declaration order."""
        return {
            "searches": self.searches,
            "postings_processed": self.postings_processed,
            "short_documents": self.short_documents,
            "long_documents": self.long_documents,
        }

    def __sub__(self, earlier: "ServerCounters") -> "ServerCounters":
        """The work done since ``earlier`` (usually a :meth:`snapshot`).

        Lets benchmark reports diff counter snapshots —
        ``(after - before).as_dict()`` — without hand-copying fields.
        """
        if not isinstance(earlier, ServerCounters):
            return NotImplemented
        return ServerCounters(
            searches=self.searches - earlier.searches,
            postings_processed=self.postings_processed - earlier.postings_processed,
            short_documents=self.short_documents - earlier.short_documents,
            long_documents=self.long_documents - earlier.long_documents,
        )


class StoreBackedSource:
    """The half of the contract every in-process server shares."""

    source_kind = "?"

    def __init__(
        self,
        store: DocumentStore,
        term_limit: int = DEFAULT_TERM_LIMIT,
        batch_limit: Optional[int] = None,
    ) -> None:
        if term_limit < 1:
            raise TextSystemError("term limit must be at least 1")
        if batch_limit is not None and batch_limit < 1:
            raise TextSystemError("batch limit must be at least 1")
        self.store = store
        self.term_limit = term_limit
        #: ``None`` (the default) models Mercury: one search per
        #: invocation.  A number turns on ``search_batch``, Section 8's
        #: proposed multi-query invocation, bounded the way a protocol
        #: message would be.
        self.batch_limit = batch_limit
        self.counters = ServerCounters()

    # ------------------------------------------------------------------
    # published meta information
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        """``D``: the size of the collection (published meta information)."""
        return len(self.store)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self.store.field_names

    @property
    def short_fields(self) -> Tuple[str, ...]:
        return self.store.short_fields

    @property
    def data_version(self) -> int:
        """Monotone counter of collection mutations (cache invalidation).

        Follows the document store's mutation stamp: any client-side
        cache of search/retrieve results must be dropped when this
        moves, because the same expression may now match differently.
        """
        return self.store.version

    @property
    def data_fingerprint(self) -> Tuple[int, int]:
        """``(store uid, version)``: a collision-free cache-validation key.

        ``data_version`` alone cannot distinguish two different stores
        that happen to sit at the same mutation count; the fingerprint
        pairs the version with the store's process-unique identity so a
        client cache swapped between servers can never mistake one
        backend's entries for another's.
        """
        return (self.store.uid, self.store.version)

    # ------------------------------------------------------------------
    # the foreign operations
    # ------------------------------------------------------------------
    def search_batch(self, queries: Sequence[Any]) -> List[ResultSet]:
        """Evaluate many searches in one invocation.

        Each is still subject to the per-search term limit, and answers
        come back in query order — the correspondence Section 8 asks
        for, which OR-batched semi-joins lose.
        """
        check_batch(len(queries), self.batch_limit)
        return [self.search(query) for query in queries]

    def retrieve(self, docid: str) -> Document:
        """Fetch one document's long form by docid."""
        document = self.store.get(docid)
        self.counters.record_retrieve()
        return document

    def retrieve_many(self, docids: Iterable[str]) -> List[Document]:
        """Fetch several long forms (each is a separate retrieval)."""
        return [self.retrieve(docid) for docid in docids]

    def drain_accounting(self) -> Tuple[float, Sequence[Any]]:
        """An in-process server has no link to waste seconds on."""
        return 0.0, ()

    # ------------------------------------------------------------------
    # building blocks for ``search``
    # ------------------------------------------------------------------
    def _check_term_limit(self, query: Any) -> None:
        used = query.term_count()
        if used > self.term_limit:
            raise SearchLimitExceeded(
                f"search uses {used} basic terms; the limit is {self.term_limit}"
            )

    def _answer(
        self,
        docids: Tuple[str, ...],
        postings_processed: int,
        scores: Tuple[float, ...] = (),
    ) -> ResultSet:
        """Materialise the short forms and account the answered search."""
        get = self.store.get
        short_fields = self.store.short_fields
        documents = tuple(get(docid).short_form(short_fields) for docid in docids)
        self.counters.record_search(postings_processed, len(docids))
        return ResultSet(
            docids=docids,
            documents=documents,
            postings_processed=postings_processed,
            scores=scores,
        )
