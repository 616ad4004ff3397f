"""The Boolean text retrieval server (the Mercury stand-in).

:class:`BooleanTextServer` is the *only* interface the database side may
use — the loose-integration assumption of Section 2.3.  It exposes
exactly two operations:

- :meth:`search` — evaluate a Boolean search expression and return the
  short-form result set (docids plus short fields), subject to the
  per-search basic-term limit ``M`` (Mercury allowed 70);
- :meth:`retrieve` — fetch one document's long form by docid.

Everything a store-backed server does whatever its query semantics —
usage counters (:class:`ServerCounters`), published meta, retrieval,
batched invocations — lives in :class:`~repro.textsys.source.
StoreBackedSource`; this module adds the Boolean evaluation.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import TextSystemError
from repro.textsys.documents import DocumentStore
from repro.textsys.engine import evaluate, resolve_engine_mode
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.parser import parse_search
from repro.textsys.query import SearchNode
from repro.textsys.result import ResultSet
from repro.textsys.source import (
    DEFAULT_TERM_LIMIT,
    ServerCounters,
    StoreBackedSource,
)

__all__ = ["ServerCounters", "BooleanTextServer", "DEFAULT_TERM_LIMIT"]


class BooleanTextServer(StoreBackedSource):
    """An inversion-based Boolean text retrieval system."""

    #: The predicate semantics this backend provides.  Boolean monotone
    #: semantics are what the Section 3-5 method space (and its
    #: probe-based pruning) is sound for; the per-backend legality check
    #: compares this against each method's required kind.
    source_kind = "boolean"

    def __init__(
        self,
        store: DocumentStore,
        term_limit: int = DEFAULT_TERM_LIMIT,
        engine_mode: Optional[str] = None,
        index: Optional[InvertedIndex] = None,
        batch_limit: Optional[int] = None,
    ) -> None:
        super().__init__(store, term_limit, batch_limit)
        #: Which evaluation engine serves searches (``reference`` keeps
        #: the linear-merge oracle; ``optimized`` is charge-identical —
        #: see DESIGN.md "Engine kernels").  Defaults to the process-wide
        #: mode (``REPRO_ENGINE_MODE`` or ``optimized``).
        self.engine_mode = resolve_engine_mode(engine_mode)
        if index is None:
            index = InvertedIndex(store)
        elif index.document_count != len(store):
            # An injected index (e.g. a DiskInvertedIndex built earlier)
            # must cover exactly this collection; ordinal order is the
            # builder's responsibility, but a size mismatch is always
            # a wiring error worth failing loudly on.
            raise TextSystemError(
                f"injected index covers {index.document_count} documents "
                f"but the store holds {len(store)}"
            )
        self.index = index

    @property
    def document_count(self) -> int:
        """``D``: the size of the *indexed* collection."""
        return self.index.document_count

    def search(self, query: Union[SearchNode, str]) -> ResultSet:
        """Run one Boolean search; returns the short-form result set.

        Raises :class:`SearchLimitExceeded` when the expression uses more
        than ``term_limit`` basic search terms.
        """
        if isinstance(query, str):
            query = parse_search(query)
        self._check_term_limit(query)
        outcome = evaluate(self.index, query, mode=self.engine_mode)
        docid_of = self.index.docid_of
        return self._answer(
            tuple(docid_of(doc) for doc in outcome.postings.doc_array),
            outcome.postings_processed,
        )

    # ------------------------------------------------------------------
    # meta information (Section 2.3 allows extracting statistics)
    # ------------------------------------------------------------------
    def document_frequency(self, field: str, term: str) -> int:
        """How many documents contain ``term`` in ``field``.

        This is meta information of the kind Section 2.3 / 4.2 assumes can
        be extracted; the sampling estimator uses probe-like searches
        instead when a system does not publish it.
        """
        return self.index.document_frequency(field, term)

    def __repr__(self) -> str:
        return (
            f"BooleanTextServer({self.document_count} documents, "
            f"fields={list(self.field_names)}, M={self.term_limit})"
        )
