"""Assembling :class:`QueryCostInputs` from live data (Section 4.2 in practice).

The optimizer needs relational statistics (``N``, distinct counts) and
text statistics (``s_i``, ``f_i`` per predicate, selection result sizes).
This module gathers them:

- relational statistics are computed exactly from the joining relation —
  a cheap local operation any DBMS catalog supports;
- text predicate statistics come from a
  :class:`~repro.gateway.statistics.TextStatisticsRegistry` when already
  sampled, and are otherwise estimated on the spot — either *exactly*
  (every distinct value, for calibrated experiments) or by metered
  *sampling* (Section 4.2's approach, whose cost is amortized across
  queries on the same predicate);
- selection statistics (``E_sel``, ``I_sel``) are measured with one
  search of the selection conjunction.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Optional, Sequence

from repro.core.costmodel import QueryCostInputs, SelectionStatistics
from repro.core.joinmethods.base import JoinContext, joining_rows, selection_nodes
from repro.core.query import TextJoinQuery
from repro.errors import OptimizationError
from repro.gateway.sampling import (
    exact_predicate_statistics,
    sample_predicate_statistics,
)
from repro.gateway.statistics import PredicateStatistics, TextStatisticsRegistry
from repro.relational.row import Row
from repro.textsys.query import and_all

__all__ = ["build_cost_inputs", "distinct_counts_for"]


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


def build_cost_inputs(
    query: TextJoinQuery,
    context: JoinContext,
    registry: Optional[TextStatisticsRegistry] = None,
    g: int = 1,
    exact: bool = True,
    sample_size: int = 20,
    rng: Optional[random.Random] = None,
    feedback=None,
) -> QueryCostInputs:
    """Gather all statistics the Section 4.3 cost formulas need.

    With ``exact=True`` (the default, matching the paper's calibrated
    experiments) predicate statistics are computed over every distinct
    column value via the server's meta interface.  With ``exact=False``
    they are estimated by metered sampling through the client.  Either
    way, results are cached in ``registry`` when one is provided.

    ``feedback`` (a :class:`~repro.core.feedback.FeedbackStore`) blends
    observed execution statistics into each predicate's prior — the
    registry keeps the *unblended* prior, so feedback weighting can
    evolve between runs without poisoning the cache.
    """
    client = context.client
    source_kind = client.source_kind
    if source_kind != "boolean":
        # Fail before sampling: the Section 4.2 statistics below are
        # gathered with Boolean probes a ranking backend rejects, and the
        # Section 3 method space they feed is unsound there anyway
        # (Section 8).  Ranked predicates go through
        # ``build_vector_cost_inputs`` in ``repro.core.heterogeneous``.
        raise OptimizationError(
            f"Boolean cost inputs cannot be gathered from a "
            f"{source_kind!r} backend; use the heterogeneous planner's "
            f"vector strategy space instead"
        )
    rows = joining_rows(context, query)
    columns = query.join_columns

    predicate_stats: Dict[str, PredicateStatistics] = {}
    for predicate in query.join_predicates:
        stats: Optional[PredicateStatistics] = None
        if registry is not None and registry.has(predicate.column, predicate.field):
            stats = registry.get(predicate.column, predicate.field)
        if stats is None:
            values = [row[predicate.column] for row in rows]
            if not any(value is not None for value in values):
                # An all-NULL join column never matches anything.
                stats = PredicateStatistics(
                    column=predicate.column,
                    field=predicate.field,
                    selectivity=0.0,
                    fanout=0.0,
                )
            elif exact:
                stats = exact_predicate_statistics(
                    client.server, predicate.column, predicate.field, values
                )
            else:
                stats = sample_predicate_statistics(
                    client,
                    predicate.column,
                    predicate.field,
                    values,
                    sample_size=sample_size,
                    rng=rng,
                )
            if registry is not None:
                registry.put(stats)
        if feedback is not None:
            from repro.core.feedback import corpus_fingerprint

            stats = feedback.blend(stats, corpus_fingerprint(client.server))
        predicate_stats[predicate.column] = stats

    if query.text_selections:
        nodes = selection_nodes(query)
        result = client.server.search(and_all(nodes))
        selection = SelectionStatistics(
            result_size=float(len(result)),
            postings=float(result.postings_processed),
            term_count=sum(node.term_count() for node in nodes),
            present=True,
        )
    else:
        selection = SelectionStatistics.absent()

    return QueryCostInputs(
        constants=client.ledger.constants,
        document_count=client.document_count,
        term_limit=client.term_limit,
        g=g,
        tuple_count=len(rows),
        predicate_stats=predicate_stats,
        selection=selection,
        distinct_counts=distinct_counts_for(rows, columns),
        batch_limit=client.batch_limit,
        rtp_fields=frozenset(client.short_fields),
        source_kind=source_kind,
    )
