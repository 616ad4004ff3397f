"""Semi-join methods (SJ and SJ+RTP) — Section 3.2.

TS turns each relational tuple into one conjunctive search.  The
semi-join idea packages many such conjuncts into a single search using
the ``or`` connector:

    sel_1 and ... and sel_m and (conj(t_1) or conj(t_2) or ... )

Text systems allow a fairly large number of basic terms per search
(Mercury allowed M = 70), so this cuts the invocation count by roughly a
factor of M/k.  When the disjunction does not fit in one search,
``ceil(|terms| / M)`` searches are sent.

**SJ** answers docid-shaped queries directly (the result set is exactly
the union of the per-tuple searches).  **SJ+RTP** generalizes to full
joins: the fetched documents are matched back to tuples with relational
text processing, which re-establishes the tuple ↔ document
correspondence that OR-batching loses.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    MethodExecution,
    effective_term_limit,
    finalize_execution,
    group_by_columns,
    instantiate_predicates,
    joining_rows,
    rtp_fields_available,
    rtp_match_pairs,
    selection_nodes,
)
from repro.core.query import ResultShape, TextJoinQuery
from repro.errors import JoinMethodError
from repro.relational.row import Row
from repro.textsys.documents import Document
from repro.textsys.query import SearchNode, and_all, or_all

__all__ = ["SemiJoin", "SemiJoinRtp", "SingleColumnSemiJoinRtp", "batch_conjuncts"]


def batch_conjuncts(
    conjuncts: Sequence[SearchNode],
    selection_terms: int,
    term_limit: int,
) -> List[List[SearchNode]]:
    """Greedily pack conjuncts into batches within the term limit.

    Each batch search re-sends the text selections, so every batch has
    ``term_limit - selection_terms`` basic terms available for the
    disjunction.  Raises when even a single conjunct does not fit.
    """
    capacity = term_limit - selection_terms
    if capacity < 1:
        raise JoinMethodError(
            f"text selections already use {selection_terms} of {term_limit} terms"
        )
    batches: List[List[SearchNode]] = []
    current: List[SearchNode] = []
    used = 0
    for conjunct in conjuncts:
        weight = conjunct.term_count()
        if weight > capacity:
            raise JoinMethodError(
                f"a single conjunct needs {weight} terms; only {capacity} available"
            )
        if used + weight > capacity:
            batches.append(current)
            current = []
            used = 0
        current.append(conjunct)
        used += weight
    if current:
        batches.append(current)
    return batches


def _run_semijoin_searches(
    query: TextJoinQuery, context: JoinContext, rows: Sequence[Row]
) -> List[Document]:
    """Send the OR-batched searches; return fetched documents (deduped)."""
    selections = selection_nodes(query)
    selection_terms = sum(node.term_count() for node in selections)

    conjuncts: List[SearchNode] = []
    for key, group in group_by_columns(rows, query.join_columns).items():
        instantiated = instantiate_predicates(query.join_predicates, group[0])
        if instantiated is None:
            continue
        conjuncts.append(and_all(instantiated))

    documents: Dict[str, Document] = {}
    if conjuncts:
        batches = batch_conjuncts(
            conjuncts, selection_terms, effective_term_limit(context)
        )
        for batch in batches:
            node = and_all(selections + [or_all(batch)])
            result = context.client.search(node)
            for document in result:
                documents.setdefault(document.docid, document)
    return list(documents.values())


class SemiJoin(JoinMethod):
    """SJ: OR-batched searches answering a docid-shaped (semi-join) query."""

    name = "SJ"

    def applies(self, query: TextJoinQuery, source) -> bool:
        """SJ alone only answers queries that are themselves semi-joins.

        The OR-batched result set loses the tuple ↔ document
        correspondence, so only the DOCIDS shape can be delivered.
        """
        return query.shape is ResultShape.DOCIDS

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        with context.client.trace_phase("SJ-batch"):
            rows = joining_rows(context, query)
            documents = _run_semijoin_searches(query, context, rows)

        execution = MethodExecution(method=self.name, shape=ResultShape.DOCIDS)
        execution.docids = [document.docid for document in documents]
        execution.cost = context.client.ledger.diff(ledger_before)
        execution.wall_seconds = time.perf_counter() - started_at
        return execution


class SemiJoinRtp(JoinMethod):
    """SJ+RTP: OR-batched fetch, then relational matching back to tuples.

    Works for every result shape and — unlike plain RTP — even without
    text selections, because the disjunction of instantiated join
    predicates bounds the search by itself.
    """

    name = "SJ+RTP"

    def applies(self, query: TextJoinQuery, source) -> bool:
        """The RTP phase needs every predicate field in the short form."""
        return rtp_fields_available(source, query.join_predicates)

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        with context.client.trace_phase("SJ-batch"):
            rows = joining_rows(context, query)
            documents = _run_semijoin_searches(query, context, rows)

        # Relational text processing re-matches documents to tuples.
        with context.client.trace_phase("RTP"):
            pairs = rtp_match_pairs(context, documents, rows, query.join_predicates)

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )


class SingleColumnSemiJoinRtp(JoinMethod):
    """SJ1+RTP: the classic distributed semi-join, on ONE join column.

    Instead of OR-ing full per-tuple conjuncts, this variant ships only
    the distinct values of a single join column (the textbook semi-join
    on one attribute [BGWR81]) — fetching every document matching the
    text selections plus *that* column's predicate — and evaluates all
    remaining join predicates relationally.

    Compared with the full-conjunct :class:`SemiJoinRtp`: fewer terms per
    tuple (more tuples per batch, fewer invocations) but a *larger*
    fetch (documents need only match one predicate), so more short-form
    transmission and more relational matching.  The optimizer-facing
    column choice is the one with minimal fanout; the ablation bench
    compares both batching disciplines.
    """

    def __init__(self, column: Optional[str] = None) -> None:
        #: None = pick the minimum-fanout column at execution time (by
        #: measuring each column's value frequencies is the optimizer's
        #: job; at execution we default to the first join column).
        self.column = column

    @property
    def name(self) -> str:
        if self.column is None:
            return "SJ1+RTP"
        return f"SJ1({self.column.split('.')[-1]})+RTP"

    def applies(self, query: TextJoinQuery, source) -> bool:
        if self.column is not None and self.column not in query.join_columns:
            return False
        return rtp_fields_available(source, query.join_predicates)

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        with context.client.trace_phase("SJ-batch"):
            rows = joining_rows(context, query)
            column = self.column or query.join_columns[0]
            column_predicate = query.predicate_on(column)
            selections = selection_nodes(query)
            selection_terms = sum(node.term_count() for node in selections)

            conjuncts: List[SearchNode] = []
            for key, group in group_by_columns(rows, (column,)).items():
                instantiated = instantiate_predicates(
                    (column_predicate,), group[0]
                )
                if instantiated is None:
                    continue
                conjuncts.append(instantiated[0])

            documents: Dict[str, Document] = {}
            if conjuncts:
                for batch in batch_conjuncts(
                    conjuncts, selection_terms, effective_term_limit(context)
                ):
                    node = and_all(selections + [or_all(batch)])
                    result = context.client.search(node)
                    for document in result:
                        documents.setdefault(document.docid, document)

        with context.client.trace_phase("RTP"):
            pairs = rtp_match_pairs(
                context, list(documents.values()), rows, query.join_predicates
            )

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )
