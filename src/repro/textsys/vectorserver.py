"""The vector-space text retrieval server (the second external source).

:class:`VectorTextServer` serves :class:`~repro.textsys.vector.
VectorSpaceEngine` behind exactly the loose-integration surface the
Boolean server exposes — ``search`` (short form) and ``retrieve`` (long
form by docid), plus the published meta information — so it drops behind
a :class:`~repro.gateway.client.TextClient`, the remote codec/transport,
the sharding router, and the serving front-end unchanged.

What differs from :class:`~repro.textsys.server.BooleanTextServer` is
the *semantics*, and that difference is the point of this backend:
results are ranked by cosine similarity and truncated to top-k, so they
are **not monotone** in the query's term set (Section 8).  The optimizer
must therefore never run probe-based pruning or semijoin term-subset
batching against this server — ``source_kind`` is what the per-backend
method-legality check keys on (DESIGN invariant 15).

Sharding: :func:`build_vector_shard_servers` builds one server per shard
store with the *source* collection's :class:`~repro.textsys.vector.
VectorStatistics` injected, so per-shard scores are bit-identical to the
unsharded engine's and the router's scored merge reproduces the single
server exactly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TextSystemError
from repro.textsys.documents import DocumentStore
from repro.textsys.result import ResultSet
from repro.textsys.sharding import ShardedCorpus
from repro.textsys.source import DEFAULT_TERM_LIMIT, StoreBackedSource
from repro.textsys.vector import VectorQuery, VectorSpaceEngine, VectorStatistics

__all__ = ["VectorTextServer", "build_vector_shard_servers"]


class VectorTextServer(StoreBackedSource):
    """A similarity-ranking text server over one field of a collection."""

    #: The predicate semantics this backend provides.  The optimizer's
    #: method-legality check compares this against each join method's
    #: required semantics (probe-based methods demand ``"boolean"``).
    source_kind = "vector"

    def __init__(
        self,
        store: DocumentStore,
        field: str,
        term_limit: int = DEFAULT_TERM_LIMIT,
        statistics: Optional[VectorStatistics] = None,
    ) -> None:
        super().__init__(store, term_limit)
        if not store.has_field(field):
            raise TextSystemError(
                f"the store has no field {field!r} to rank on"
            )
        self.field = field
        self.statistics = statistics
        self._engine: Optional[VectorSpaceEngine] = None
        self._engine_version: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def engine(self) -> VectorSpaceEngine:
        """The scoring engine, rebuilt lazily when the store mutates.

        The engine is an immutable snapshot of the collection; tracking
        ``store.version`` here means a search after an ``add_record``
        never scores against stale postings or norms.
        """
        if self._engine is None or self._engine_version != self.store.version:
            self._engine = VectorSpaceEngine(
                self.store, self.field, statistics=self.statistics
            )
            self._engine_version = self.store.version
        return self._engine

    def search(self, query: VectorQuery) -> ResultSet:
        """Run one similarity search; returns the scored short-form set.

        Only :class:`~repro.textsys.vector.VectorQuery` is accepted —
        sending a Boolean expression at a vector backend is a wiring
        error worth failing loudly on, not something to coerce.
        """
        if not isinstance(query, VectorQuery):
            raise TextSystemError(
                f"a vector server answers VectorQuery objects, not "
                f"{type(query).__name__}"
            )
        if query.field != self.field:
            raise TextSystemError(
                f"this vector server ranks field {self.field!r}, "
                f"not {query.field!r}"
            )
        self._check_term_limit(query)
        outcome = self.engine.counted_search(
            query.terms, top_k=query.top_k, threshold=query.threshold
        )
        return self._answer(
            tuple(entry.docid for entry in outcome.scored),
            outcome.postings_processed,
            scores=tuple(entry.score for entry in outcome.scored),
        )

    # ------------------------------------------------------------------
    # meta information (Section 2.3 allows extracting statistics)
    # ------------------------------------------------------------------
    def document_frequency(self, field: str, term: str) -> int:
        """How many *local* documents contain ``term`` in the ranked field.

        Local (not injected-global) so that per-shard frequencies sum to
        the source collection's, exactly like the Boolean server's.
        """
        if field != self.field:
            raise TextSystemError(
                f"this vector server ranks field {self.field!r}, not {field!r}"
            )
        return self.engine.document_frequency(term)

    def __repr__(self) -> str:
        return (
            f"VectorTextServer({self.document_count} documents, "
            f"field={self.field!r}, M={self.term_limit})"
        )


def build_vector_shard_servers(
    corpus: ShardedCorpus,
    field: str,
    term_limit: int = DEFAULT_TERM_LIMIT,
    statistics: Optional[VectorStatistics] = None,
) -> List[VectorTextServer]:
    """One :class:`VectorTextServer` per shard store, scoring globally.

    Every shard engine is handed the *source* collection's statistics
    (measured here unless supplied), so idf and document norms — and
    therefore scores — match the unsharded engine bit for bit; only the
    postings counts stay local, which is what makes them additive.
    """
    if statistics is None:
        statistics = VectorStatistics.for_store(corpus.source, field)
    return [
        VectorTextServer(
            store, field, term_limit=term_limit, statistics=statistics
        )
        for store in corpus.stores
    ]
