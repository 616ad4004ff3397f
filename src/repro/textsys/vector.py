"""A vector-space retrieval engine — and why the paper's techniques
break on it (Section 8).

"Another natural question is whether our techniques can be used for text
systems that are based on other retrieval models (e.g., vector-space,
probabilistic) … In particular, adding predicates in a query in these
text systems may result in more answers.  In contrast, our techniques
rely on the traditional semantics of predicates.  Thus … our techniques
will not be directly applicable in such systems."

:class:`VectorSpaceEngine` implements classic TF–IDF / cosine ranking
over the same document collection the Boolean server indexes.  A query
is a bag of terms; the result is the set of documents whose similarity
exceeds a threshold (or the top-*k*).  The test suite uses it to
*demonstrate* the paper's point: query results are **not monotone** in
the predicate set — adding a term can add documents — so a failed
"probe" on a term subset proves nothing about the full query, and
probe-based pruning is unsound here.

Since this engine became a served backend (see
:class:`~repro.textsys.vectorserver.VectorTextServer`) it also carries:

- :class:`VectorQuery` — the wire-able query object (field, bag of
  terms, ``top_k``, ``threshold``) with the same ``to_expression()`` /
  ``term_count()`` surface the Boolean search nodes expose, so the
  metered gateway, its cache, and the call tracer work unchanged;
- **counted searches** — :meth:`VectorSpaceEngine.counted_search`
  reports the postings read (the sum of the query tokens' local
  inverted-list lengths), which is what the per-backend cost model
  multiplies by ``c_p``;
- **injected collection statistics** (:class:`VectorStatistics`) — a
  shard server scores with the *global* document count and document
  frequencies, so per-shard scores are bit-identical to the unsharded
  engine's and a scatter-gathered top-k merge reproduces the single
  server exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TextSystemError, UnknownFieldError
from repro.textsys.analysis import tokenize
from repro.textsys.documents import DocumentStore

__all__ = [
    "ScoredDocument",
    "VectorQuery",
    "VectorStatistics",
    "VectorSearchOutcome",
    "VectorSpaceEngine",
]


@dataclass(frozen=True)
class ScoredDocument:
    """One ranked answer: a docid and its cosine similarity."""

    docid: str
    score: float


@dataclass(frozen=True)
class VectorQuery:
    """A similarity search: rank ``field`` against a bag of ``terms``.

    The vector analogue of a Boolean search expression.  ``top_k=None``
    means "no truncation"; ``threshold`` is a strict lower bound on the
    returned cosine similarity.  A *negative* threshold asks for every
    document in the collection (zero-similarity documents included) —
    the corpus-dump form the V-SCAN join strategy relies on.

    The object deliberately quacks like a
    :class:`~repro.textsys.query.SearchNode` where the gateway cares:
    ``to_expression()`` is the canonical cache/trace key and
    ``term_count()`` is what the server checks against its term limit.
    """

    field: str
    terms: Tuple[str, ...]
    top_k: Optional[int] = 10
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        if self.top_k is not None and self.top_k < 1:
            raise TextSystemError("top_k must be positive when given")

    def term_count(self) -> int:
        """Basic terms this query occupies (the term-limit currency)."""
        return len(self.terms)

    def to_expression(self) -> str:
        """Canonical rendering, stable across processes (cache key)."""
        terms = ", ".join(f"'{term}'" for term in self.terms)
        k = "all" if self.top_k is None else str(self.top_k)
        return f"VSIM({self.field}; [{terms}]; k={k}; t>{self.threshold!r})"

    def __repr__(self) -> str:
        return self.to_expression()


@dataclass(frozen=True)
class VectorStatistics:
    """Collection-level scoring statistics (``N`` and per-term df).

    A sharded deployment injects the *source* collection's statistics
    into every shard engine: idf and document norms then come out
    identical to the unsharded engine's, so per-document scores — and
    therefore the scatter-gathered top-k — are bit-identical.
    """

    document_count: int
    document_frequency: Mapping[str, int]

    @classmethod
    def for_store(cls, store: DocumentStore, field: str) -> "VectorStatistics":
        """Measure the statistics of one field over a whole store."""
        if not store.has_field(field):
            raise UnknownFieldError(f"unknown text field {field!r}")
        frequency: Dict[str, int] = {}
        for document in store:
            for term in set(tokenize(document.field(field))):
                frequency[term] = frequency.get(term, 0) + 1
        return cls(document_count=len(store), document_frequency=frequency)


class VectorSearchOutcome(NamedTuple):
    """A ranked answer plus the postings the engine read to produce it."""

    scored: List[ScoredDocument]
    postings_processed: int


class VectorSpaceEngine:
    """TF–IDF / cosine retrieval over one field of a document store.

    ``statistics`` (optional) overrides the collection statistics used
    for idf and norms — see :class:`VectorStatistics`.  Postings counts
    always reflect the *local* inverted lists actually read, so they sum
    exactly across shards.
    """

    def __init__(
        self,
        store: DocumentStore,
        field: str,
        statistics: Optional[VectorStatistics] = None,
    ) -> None:
        if not store.has_field(field):
            raise UnknownFieldError(f"unknown text field {field!r}")
        self.store = store
        self.field = field
        self.statistics = statistics
        self._document_count = (
            statistics.document_count if statistics is not None else len(store)
        )
        # term -> {docid: term frequency} (local postings).
        self._term_documents: Dict[str, Dict[str, int]] = {}
        self._norms: Dict[str, float] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        frequencies: Dict[str, Counter] = {}
        for document in self.store:
            counts = Counter(tokenize(document.field(self.field)))
            frequencies[document.docid] = counts
            for term, frequency in counts.items():
                self._term_documents.setdefault(term, {})[document.docid] = frequency
        for docid, counts in frequencies.items():
            norm_squared = 0.0
            for term, frequency in counts.items():
                weight = self._weight(term, frequency)
                norm_squared += weight * weight
            self._norms[docid] = math.sqrt(norm_squared)

    def document_frequency(self, term: str) -> int:
        """How many *local* documents contain ``term`` (postings length)."""
        return len(self._term_documents.get(term, ()))

    def _scoring_frequency(self, term: str) -> int:
        """The df used for idf: injected (global) when available."""
        if self.statistics is not None:
            return self.statistics.document_frequency.get(term, 0)
        return len(self._term_documents.get(term, ()))

    def _idf(self, term: str) -> float:
        document_frequency = self._scoring_frequency(term)
        if document_frequency == 0:
            return 0.0
        return math.log((1 + self._document_count) / (1 + document_frequency)) + 1.0

    def _weight(self, term: str, frequency: int) -> float:
        if frequency <= 0:
            return 0.0
        return (1.0 + math.log(frequency)) * self._idf(term)

    # ------------------------------------------------------------------
    def _query_vector(
        self, terms: Sequence[str]
    ) -> Tuple[Dict[str, float], float]:
        """Token → query weight (first-occurrence order) and the norm.

        Duplicate query terms accumulate term frequency (the classic
        ``1 + log tf`` damping) rather than being dropped or
        double-counted.
        """
        query_counts = Counter(
            token for term in terms for token in tokenize(term)
        )
        weights: Dict[str, float] = {}
        norm_squared = 0.0
        for token, query_frequency in query_counts.items():
            weight = (1.0 + math.log(query_frequency)) * self._idf(token)
            weights[token] = weight
            norm_squared += weight * weight
        return weights, math.sqrt(norm_squared)

    def _score_against(
        self, docid: str, weights: Dict[str, float], query_norm: float
    ) -> float:
        if query_norm == 0.0:
            return 0.0
        dot = 0.0
        for token, query_weight in weights.items():
            frequency = self._term_documents.get(token, {}).get(docid, 0)
            dot += query_weight * self._weight(token, frequency)
        document_norm = self._norms.get(docid, 0.0)
        if dot == 0.0 or document_norm == 0.0:
            return 0.0
        return dot / (document_norm * query_norm)

    def counted_search(
        self,
        terms: Sequence[str],
        top_k: Optional[int] = 10,
        threshold: float = 0.0,
    ) -> VectorSearchOutcome:
        """:meth:`search` plus the postings read to answer it.

        ``postings_processed`` is the sum of the *local* inverted-list
        lengths of the distinct query tokens — the quantity the cost
        model multiplies by ``c_p``, and (because postings partition
        across shards) exactly additive under sharding.
        """
        if top_k is not None and top_k < 1:
            raise TextSystemError("top_k must be positive when given")
        weights, query_norm = self._query_vector(terms)
        postings = sum(
            len(self._term_documents.get(token, ())) for token in weights
        )
        if threshold < 0:
            # A negative threshold admits zero-similarity documents, so
            # every document is a candidate — not just those sharing a
            # term with the query.  (Pre-fix the engine only considered
            # posting-list candidates and silently dropped zero-score
            # documents that the contract `score > threshold` includes.)
            candidates = [document.docid for document in self.store]
        else:
            seen = set()
            candidates = []
            for token in weights:
                for docid in self._term_documents.get(token, ()):
                    if docid not in seen:
                        seen.add(docid)
                        candidates.append(docid)
        scored = [
            ScoredDocument(docid, self._score_against(docid, weights, query_norm))
            for docid in candidates
        ]
        scored = [entry for entry in scored if entry.score > threshold]
        scored.sort(key=lambda entry: (-entry.score, entry.docid))
        if top_k is not None:
            scored = scored[:top_k]
        return VectorSearchOutcome(scored=scored, postings_processed=postings)

    def search(
        self,
        terms: Sequence[str],
        top_k: Optional[int] = 10,
        threshold: float = 0.0,
    ) -> List[ScoredDocument]:
        """Rank documents against a bag of terms.

        Returns documents with score strictly above ``threshold``, best
        first (ties broken by docid), truncated to ``top_k`` (``None``
        for all).  Note the semantics: a document matching *any* query
        term can appear — this is where Boolean monotonicity dies.
        """
        return self.counted_search(terms, top_k, threshold).scored
