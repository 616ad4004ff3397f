"""Assembling :class:`QueryCostInputs` from live data (Section 4.2 in practice).

The optimizer needs relational statistics (``N``, distinct counts) and
text statistics (``s_i``, ``f_i`` per predicate, selection result sizes).
This module gathers them, for every planner alike:

- relational statistics are computed exactly from the joining relation —
  a cheap local operation any DBMS catalog supports;
- text predicate statistics come from a
  :class:`~repro.gateway.statistics.TextStatisticsRegistry` when already
  gathered, and are otherwise measured on the spot, *exactly*: every
  distinct value, answered from the source's published directory of
  document frequencies (Section 8's published statistics; only a
  multi-word value costs a search, and that one is unmetered);
- selection statistics (``E_sel``, ``I_sel``) are measured with one
  unmetered search of the selection conjunction.

Every read goes through the :class:`~repro.gateway.client.TextClient`:
gathering charges nothing, but it is settled and traced there like any
other traffic.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence

from repro.core.costmodel import QueryCostInputs, SelectionStatistics
from repro.core.feedback import corpus_fingerprint
from repro.core.joinmethods.base import (
    JoinContext,
    ensure_plannable,
    joining_rows,
    selection_node,
)
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.gateway.client import TextClient
from repro.gateway.sampling import exact_predicate_statistics
from repro.gateway.statistics import PredicateStatistics, TextStatisticsRegistry
from repro.relational.row import Row
from repro.textsys.query import and_all

__all__ = [
    "build_cost_inputs",
    "distinct_counts_for",
    "source_capabilities",
    "selection_statistics",
    "predicate_statistics",
]


def distinct_counts_for(
    rows: Sequence[Row], columns: Sequence[str]
) -> Dict[FrozenSet[str], int]:
    """Exact distinct counts for every non-empty subset of ``columns``.

    NULL-containing projections are excluded (they never join).  With the
    paper's k <= 3 join predicates this enumerates at most 7 subsets.
    """
    counts: Dict[FrozenSet[str], int] = {}
    for size in range(1, len(columns) + 1):
        for subset in itertools.combinations(columns, size):
            seen = set()
            for row in rows:
                key = tuple(row[column] for column in subset)
                if any(part is None for part in key):
                    continue
                seen.add(key)
            counts[frozenset(subset)] = len(seen)
    return counts


def source_capabilities(client: TextClient) -> Dict[str, Any]:
    """The capability half of :class:`QueryCostInputs`, read off a client.

    Every Boolean planner calls this first, so it carries the plan-time
    guard: a non-Boolean backend is refused before any statistics call.
    """
    ensure_plannable("boolean", client)
    return dict(
        constants=client.ledger.constants,
        document_count=client.document_count,
        term_limit=client.term_limit,
        batch_limit=client.batch_limit,
        short_fields=frozenset(client.short_fields),
        source_kind=client.source_kind,
    )


def selection_statistics(
    selections: Sequence[TextSelection], client: TextClient
) -> SelectionStatistics:
    """``E_sel`` / ``I_sel``: one unmetered search of the conjunction."""
    if not selections:
        return SelectionStatistics.absent()
    nodes = [selection_node(selection) for selection in selections]
    result = client.statistics_search(and_all(nodes))
    return SelectionStatistics(
        result_size=float(len(result)),
        postings=float(result.postings_processed),
        term_count=sum(node.term_count() for node in nodes),
        present=True,
    )


def predicate_statistics(
    predicates: Sequence[TextJoinPredicate],
    rows_for: Callable[[TextJoinPredicate], Sequence[Row]],
    client: TextClient,
    registry: Optional[TextStatisticsRegistry] = None,
    feedback=None,
) -> Dict[str, PredicateStatistics]:
    """``s_i`` / ``f_i`` per join column: from the registry, else measured.

    Column values are read from ``rows_for(predicate)`` only on a
    registry miss.  ``feedback`` (a :class:`~repro.core.feedback.
    FeedbackStore`) blends observed execution statistics into each
    prior — the registry keeps the *unblended* prior, so feedback
    weighting can evolve between runs without poisoning the cache.
    """
    gathered: Dict[str, PredicateStatistics] = {}
    fingerprint = corpus_fingerprint(client) if feedback is not None else None
    for predicate in predicates:
        column, field = predicate.column, predicate.field
        if registry is not None and registry.has(column, field):
            stats = registry.get(column, field)
        else:
            values = [row[column] for row in rows_for(predicate)]
            if not any(value is not None for value in values):
                # An all-NULL join column never matches anything.
                stats = PredicateStatistics(
                    column=column, field=field, selectivity=0.0, fanout=0.0
                )
            else:
                stats = exact_predicate_statistics(client, column, field, values)
            if registry is not None:
                registry.put(stats)
        if feedback is not None:
            stats = feedback.blend(stats, fingerprint)
        gathered[column] = stats
    return gathered


def build_cost_inputs(
    query: TextJoinQuery,
    context: JoinContext,
    registry: Optional[TextStatisticsRegistry] = None,
    g: int = 1,
    feedback=None,
) -> QueryCostInputs:
    """Gather all statistics the Section 4.3 cost formulas need.

    Predicate statistics are computed over every distinct column value
    from the source's published document frequencies — a directory read
    per one-word value, one unmetered search per multi-word value — and
    nothing is charged; the selection conjunction is the one search an
    all-one-word query still sends.  Every read goes through the client,
    results are cached in ``registry`` when one is provided, and
    ``feedback`` blends observed statistics into each prior (see
    :func:`predicate_statistics`).
    """
    client = context.client
    capabilities = source_capabilities(client)
    rows = joining_rows(context, query)
    return QueryCostInputs(
        g=g,
        tuple_count=len(rows),
        predicate_stats=predicate_statistics(
            query.join_predicates,
            lambda predicate: rows,
            client,
            registry=registry,
            feedback=feedback,
        ),
        selection=selection_statistics(query.text_selections, client),
        distinct_counts=distinct_counts_for(rows, query.join_columns),
        **capabilities,
    )
