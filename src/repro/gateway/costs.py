"""Cost constants and the metered cost ledger (Section 4.1).

The cost of accessing the text system has three components — invocation,
processing, and transmission — plus the relational-side string matching
cost for RTP methods:

    cost of one search  =  c_i  +  c_p * (postings processed)
                                +  c_s * |result set|        (short form)
    cost of one retrieve =  c_l                               (long form)
    relational text processing = c_a per document matched against

The paper calibrated the integrated OpenODB ↔ Mercury system and obtained
``c_i = 3`` s, ``c_p = 1e-5`` s/posting, short form ``0.015`` s/document
and long form ``4`` s/document ("the long-form transmission cost is
orders of magnitude more expensive than the short-form cost as each
retrieval requires a separate connection").  Those calibrated values are
the defaults here, so simulated costs land in the same regime as the
paper's measurements.  ``c_a`` is only described as a proportionality
constant; we default it to 1 ms/document (SQL substring matching of a
short field is far cheaper than any remote operation).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import GatewayError

__all__ = ["CostConstants", "CostLedger", "PAPER_CONSTANTS", "VECTOR_CONSTANTS"]


@dataclass(frozen=True)
class CostConstants:
    """The five proportionality constants of Table 1 (seconds)."""

    invocation: float = 3.0  # c_i, per search sent to the text system
    per_posting: float = 0.00001  # c_p, per posting on retrieved inverted lists
    short_form: float = 0.015  # c_s, per document in a short-form result set
    long_form: float = 4.0  # c_l, per long-form document retrieved
    rtp_per_document: float = 0.001  # c_a, per document string-matched in SQL

    def __post_init__(self) -> None:
        for name in (
            "invocation",
            "per_posting",
            "short_form",
            "long_form",
            "rtp_per_document",
        ):
            if getattr(self, name) < 0:
                raise GatewayError(f"cost constant {name} must be non-negative")

    def search_cost(self, postings_processed: int, result_size: int) -> float:
        """Cost of one search per the Section 4.1 formula."""
        return (
            self.invocation
            + self.per_posting * postings_processed
            + self.short_form * result_size
        )

    def answer_cost(self, postings_processed: int, result_size: int) -> float:
        """One answer's processing + short-form share, without ``c_i``.

        What a search inside a batched invocation costs on its own: the
        batch pays one ``c_i`` however many answers it carries.  With
        :meth:`search_cost` this is the one as-if-alone price every
        cache hit, joined flight and shared-search credit is settled at.
        """
        return self.per_posting * postings_processed + self.short_form * result_size


#: The constants measured on the live OpenODB ↔ Mercury integration.
PAPER_CONSTANTS = CostConstants()

#: Default constants for the vector-space backend (Section 8 / ROADMAP
#: item 4).  Each external source carries its *own* ``c_i, c_p, c_s,
#: c_l`` — the paper calibrated one Boolean server; a ranking backend
#: pays more per posting (weighted accumulation instead of a sorted-list
#: merge) and per short-form document (each carries a score), while its
#: relational-side scoring constant is smaller than Boolean ``c_a``
#: (a dot product over a cached query vector beats SQL substring
#: matching).  The registry attributes charges per backend with these
#: (DESIGN invariant 15).
VECTOR_CONSTANTS = CostConstants(
    invocation=3.0,
    per_posting=0.00002,
    short_form=0.02,
    long_form=4.0,
    rtp_per_document=0.0005,
)


@dataclass
class CostLedger:
    """Accumulates metered work and prices it with :class:`CostConstants`.

    The ledger separates *counts* (observable work) from *cost* (counts
    priced by the constants), so tests can verify the accounting
    invariant exactly: ``total == c_i*searches + c_p*postings +
    c_s*short + c_l*long + c_a*rtp``.

    ``seconds_saved``, ``seconds_shared`` and ``seconds_retried`` are
    side channels, NOT part of ``total``: the first accumulates the
    simulated cost that gateway-cache hits avoided (a hit charges
    nothing into the counts above — and for a caching client, joining
    another client's identical in-flight search *is* a hit); the second
    accumulates the simulated backend work a cache-less client's
    searches avoided by joining an identical search in the gateway's
    in-flight table (the client is still charged in full, as if it ran
    alone — DESIGN invariant 16); the third accumulates simulated
    seconds *wasted* by the remote transport on failed attempts and
    backoff pauses (see :mod:`repro.remote.transport`).  Keeping all
    three out of ``total`` preserves the Section 4.1 identity exactly
    while still making the cache, the in-flight table, and retry overhead
    observable next to the ``c_i``-dominated link costs.

    The ledger is safe to share across threads: pooled transports and
    the concurrent serving front-end charge one ledger from many worker
    threads, and every mutation (and every multi-field read —
    ``snapshot``, ``diff``, ``total``) holds an internal re-entrant
    lock.  Counts are integers, so a locked ledger accumulates the same
    values in any interleaving and ``total`` stays bit-identical to a
    serial run of the same charges.
    """

    constants: CostConstants = field(default_factory=CostConstants)
    searches: int = 0
    postings_processed: int = 0
    short_documents: int = 0
    long_documents: int = 0
    rtp_documents: int = 0
    seconds_saved: float = 0.0
    seconds_shared: float = 0.0
    seconds_retried: float = 0.0
    # Re-entrant so subclasses (the serving layer's budgeted ledger) can
    # enforce limits atomically around a charge.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, init=False, repr=False, compare=False
    )

    def charge_search(self, postings_processed: int, result_size: int) -> float:
        """Record one search invocation; returns its cost."""
        with self._lock:
            self.searches += 1
            self.postings_processed += postings_processed
            self.short_documents += result_size
        return self.constants.search_cost(postings_processed, result_size)

    def charge_retrieve(self) -> float:
        """Record one long-form retrieval; returns its cost."""
        with self._lock:
            self.long_documents += 1
        return self.constants.long_form

    def charge_rtp(self, document_count: int) -> float:
        """Record relational text processing over ``document_count`` docs."""
        if document_count < 0:
            raise GatewayError("document count must be non-negative")
        with self._lock:
            self.rtp_documents += document_count
        return self.constants.rtp_per_document * document_count

    def credit_saved(self, seconds: float) -> float:
        """Record simulated seconds a cache hit — or, with a cache, a
        joined in-flight search — avoided (not in ``total``)."""
        if seconds < 0:
            raise GatewayError("saved seconds must be non-negative")
        with self._lock:
            self.seconds_saved += seconds
        return seconds

    def credit_shared(self, seconds: float) -> float:
        """Record simulated seconds a shared execution avoided.

        A side channel like ``seconds_saved``: the tenant's ``total``
        already carries the full alone-cost of the search (DESIGN
        invariant 16); this records the backend work that did *not*
        happen because the search joined an identical in-flight one.
        Only cache-less clients credit this channel; a caching client
        settles a join as a hit through :meth:`credit_saved`.
        """
        if seconds < 0:
            raise GatewayError("shared seconds must be non-negative")
        with self._lock:
            self.seconds_shared += seconds
        return seconds

    def charge_retry_waste(self, seconds: float) -> float:
        """Record simulated seconds wasted on failed remote attempts.

        A side channel like ``seconds_saved``: visible in reports but
        never part of ``total``, which prices only *answered* work.
        """
        if seconds < 0:
            raise GatewayError("retried seconds must be non-negative")
        with self._lock:
            self.seconds_retried += seconds
        return seconds

    @property
    def total(self) -> float:
        """Total simulated cost in seconds."""
        constants = self.constants
        with self._lock:
            return (
                constants.invocation * self.searches
                + constants.per_posting * self.postings_processed
                + constants.short_form * self.short_documents
                + constants.long_form * self.long_documents
                + constants.rtp_per_document * self.rtp_documents
            )

    def reset(self) -> None:
        with self._lock:
            self.searches = 0
            self.postings_processed = 0
            self.short_documents = 0
            self.long_documents = 0
            self.rtp_documents = 0
            self.seconds_saved = 0.0
            self.seconds_shared = 0.0
            self.seconds_retried = 0.0

    def snapshot(self) -> "CostLedger":
        """An independent copy of the current state."""
        with self._lock:
            return CostLedger(
                constants=self.constants,
                searches=self.searches,
                postings_processed=self.postings_processed,
                short_documents=self.short_documents,
                long_documents=self.long_documents,
                rtp_documents=self.rtp_documents,
                seconds_saved=self.seconds_saved,
                seconds_shared=self.seconds_shared,
                seconds_retried=self.seconds_retried,
            )

    def diff(self, earlier: "CostLedger") -> "CostLedger":
        """The work done since ``earlier`` (a snapshot of this ledger)."""
        with self._lock:
            return CostLedger(
                constants=self.constants,
                searches=self.searches - earlier.searches,
                postings_processed=self.postings_processed
                - earlier.postings_processed,
                short_documents=self.short_documents - earlier.short_documents,
                long_documents=self.long_documents - earlier.long_documents,
                rtp_documents=self.rtp_documents - earlier.rtp_documents,
                seconds_saved=self.seconds_saved - earlier.seconds_saved,
                seconds_shared=self.seconds_shared - earlier.seconds_shared,
                seconds_retried=self.seconds_retried - earlier.seconds_retried,
            )

    def report(self) -> dict:
        """JSON-friendly accounting report (counts, total, seconds saved)."""
        state = self.snapshot()
        return {
            "searches": state.searches,
            "postings_processed": state.postings_processed,
            "short_documents": state.short_documents,
            "long_documents": state.long_documents,
            "rtp_documents": state.rtp_documents,
            "total": state.total,
            "seconds_saved": state.seconds_saved,
            "seconds_shared": state.seconds_shared,
            "seconds_retried": state.seconds_retried,
        }

    def __repr__(self) -> str:
        return (
            f"CostLedger(total={self.total:.3f}s, searches={self.searches}, "
            f"postings={self.postings_processed}, short={self.short_documents}, "
            f"long={self.long_documents}, rtp={self.rtp_documents}, "
            f"saved={self.seconds_saved:.3f}s)"
        )
