"""Join strategies for ranked (vector-space) text backends.

The Section 3 method space is unsound against a ranking source (its
pruning relies on Boolean monotonicity — see
:func:`~repro.core.joinmethods.base.ensure_method_legal`), so a
:class:`~repro.core.query.VectorJoinPredicate` gets its own, smaller
method space (the ``"vector"`` rows of
:data:`~repro.core.optimizer.single_join.METHOD_SPACES`):

- :class:`VectorTopKProbe` (**V-TOPK**) — one ranked search per distinct
  non-NULL binding, the tuple-substitution analogue.  Always applicable.
- :class:`VectorCorpusScan` (**V-SCAN**) — one corpus-dump search (empty
  query, negative threshold: every document at score 0), then score each
  binding *locally* against the dumped short forms, charging ``c_a`` per
  (document, binding) pair — the RTP analogue, applicable only when the
  ranked field travels in short-form results.

Both strategies return the same ranked matches for the same bindings:
the local engine V-SCAN builds from the dump covers the full collection,
so its idf/norms — and therefore scores, ordering and truncation — are
identical to the server's.  Only the cost profile differs, which is what
the heterogeneous planner prices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    joining_rows,
    rtp_fields_available,
)
from repro.core.query import TextJoinQuery, VectorJoinPredicate
from repro.errors import JoinMethodError
from repro.gateway.costs import CostLedger
from repro.relational.row import Row
from repro.textsys.analysis import tokenize
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.vector import ScoredDocument, VectorQuery, VectorSpaceEngine

__all__ = [
    "VectorExecution",
    "VectorJoinStrategy",
    "VectorTopKProbe",
    "VectorCorpusScan",
    "vector_joining_rows",
]


@dataclass
class VectorExecution:
    """The outcome of running one vector join strategy.

    ``row_matches`` pairs every joining tuple with its ranked matches
    (best first; empty for tuples whose binding is NULL or has no
    indexable word).  ``cost`` is the ledger delta attributable to the
    strategy, priced with the *vector backend's* constants.
    """

    method: str
    row_matches: List[Tuple[Row, Tuple[ScoredDocument, ...]]] = field(
        default_factory=list
    )
    cost: CostLedger = field(default_factory=CostLedger)
    searches: int = 0
    wall_seconds: float = 0.0

    def result_keys(self) -> frozenset:
        """Canonical identity: ``(tuple values, docid)`` match pairs."""
        return frozenset(
            (row.values, entry.docid)
            for row, matches in self.row_matches
            for entry in matches
        )

    def __repr__(self) -> str:
        matched = sum(1 for _, matches in self.row_matches if matches)
        return (
            f"VectorExecution({self.method}, {matched}/"
            f"{len(self.row_matches)} tuples matched, "
            f"cost={self.cost.total:.3f}s)"
        )


def vector_joining_rows(
    context: JoinContext, relation: str, base_query: Optional[TextJoinQuery] = None
) -> List[Row]:
    """The joining tuples for a vector predicate's relation.

    Reuses the Boolean machinery when a base query is given (so both
    halves of a heterogeneous plan see the same relational selection);
    otherwise scans the named relation or materialized intermediate.
    """
    if base_query is not None:
        return joining_rows(context, base_query)
    if relation in context.materialized:
        return list(context.materialized[relation])
    return context.catalog.table(relation).scan()


def _binding(row: Row, predicate: VectorJoinPredicate) -> Optional[str]:
    """A tuple's query text, or ``None`` when it cannot match anything."""
    value = row[predicate.column]
    if value is None:
        return None
    text = str(value)
    if not tokenize(text):
        return None
    return text


class VectorJoinStrategy(JoinMethod):
    """Base class for the ranked-predicate strategies: join methods whose
    "query" is a :class:`~repro.core.query.VectorJoinPredicate` and which
    :meth:`run` over explicit rows rather than ``execute``."""

    #: These strategies are only meaningful against a ranking backend —
    #: the legality check is symmetric (a Boolean server cannot answer a
    #: VectorQuery either).
    source_kind: str = "vector"

    def illegal_on(self, source_kind: str) -> JoinMethodError:
        return JoinMethodError(
            f"{self.name} runs against a {self.source_kind!r} backend; "
            f"this client serves a {source_kind!r} source"
        )

    def run(
        self,
        predicate: VectorJoinPredicate,
        rows: Sequence[Row],
        context: JoinContext,
    ) -> VectorExecution:
        raise NotImplementedError


class VectorTopKProbe(VectorJoinStrategy):
    """V-TOPK: one ranked search per distinct binding (the TS analogue).

    Each distinct binding travels once (duplicate bindings share the
    answer, like distinct-only TS), charged ``c_i + c_p I + c_s |result|``
    by the gateway from the server's own counts.
    """

    name = "V-TOPK"

    def applies(self, predicate: VectorJoinPredicate, source) -> bool:
        return True

    def run(
        self,
        predicate: VectorJoinPredicate,
        rows: Sequence[Row],
        context: JoinContext,
    ) -> VectorExecution:
        self.check_applicable(predicate, context)
        started = time.perf_counter()
        client = context.client
        before = client.ledger.snapshot()
        answers: Dict[str, Tuple[ScoredDocument, ...]] = {}
        searches = 0
        row_matches: List[Tuple[Row, Tuple[ScoredDocument, ...]]] = []
        with client.trace_phase(self.name):
            for row in rows:
                text = _binding(row, predicate)
                if text is None:
                    row_matches.append((row, ()))
                    continue
                if text not in answers:
                    result = client.search(
                        VectorQuery(
                            predicate.field,
                            (text,),
                            top_k=predicate.top_k,
                            threshold=predicate.threshold,
                        )
                    )
                    answers[text] = tuple(
                        ScoredDocument(docid, score)
                        for docid, score in zip(result.docids, result.scores)
                    )
                    searches += 1
                row_matches.append((row, answers[text]))
        return VectorExecution(
            method=self.name,
            row_matches=row_matches,
            cost=client.ledger.diff(before),
            searches=searches,
            wall_seconds=time.perf_counter() - started,
        )


class VectorCorpusScan(VectorJoinStrategy):
    """V-SCAN: dump the corpus once, score every binding locally.

    One empty-query search at a negative threshold transmits every short
    form (score 0, no postings); a local :class:`VectorSpaceEngine` is
    rebuilt from the dump and answers each distinct binding for ``c_a``
    per document (charged through :meth:`TextClient.charge_rtp`).  The
    dump covers the full collection, so the local engine's statistics —
    and therefore its scores and rankings — are identical to the
    server's, and V-SCAN returns exactly V-TOPK's matches.

    Applicable only when the ranked field is short-form visible
    (otherwise the dump carries nothing to score against), mirroring the
    RTP applicability condition.
    """

    name = "V-SCAN"

    def applies(self, predicate: VectorJoinPredicate, source) -> bool:
        return rtp_fields_available(source, (predicate,))

    def run(
        self,
        predicate: VectorJoinPredicate,
        rows: Sequence[Row],
        context: JoinContext,
    ) -> VectorExecution:
        self.check_applicable(predicate, context)
        started = time.perf_counter()
        client = context.client
        before = client.ledger.snapshot()
        with client.trace_phase(self.name):
            dump = client.search(
                VectorQuery(predicate.field, (), top_k=None, threshold=-1.0)
            )
            local = DocumentStore(
                (predicate.field,), short_fields=(predicate.field,)
            )
            for document in dump.documents:
                local.add(
                    Document(
                        document.docid,
                        {predicate.field: document.field(predicate.field)},
                    )
                )
            engine = VectorSpaceEngine(local, predicate.field)
            answers: Dict[str, Tuple[ScoredDocument, ...]] = {}
            row_matches: List[Tuple[Row, Tuple[ScoredDocument, ...]]] = []
            for row in rows:
                text = _binding(row, predicate)
                if text is None:
                    row_matches.append((row, ()))
                    continue
                if text not in answers:
                    client.charge_rtp(len(local))
                    answers[text] = tuple(
                        engine.search(
                            (text,),
                            top_k=predicate.top_k,
                            threshold=predicate.threshold,
                        )
                    )
                row_matches.append((row, answers[text]))
        return VectorExecution(
            method=self.name,
            row_matches=row_matches,
            cost=client.ledger.diff(before),
            searches=1,
            wall_seconds=time.perf_counter() - started,
        )
