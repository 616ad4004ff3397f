"""Batched tuple substitution (B+TS) — the Section 8 extension, realized.

Ordinary TS pays one invocation per distinct joining tuple.  When the
text system accepts multiple queries per invocation *and returns answers
in correspondence* (a source that publishes a ``batch_limit``), the
same per-tuple searches can travel ``batch_limit`` at a time:
invocation cost drops by that factor while — unlike the OR-batched
semi-join — the tuple ↔ answer correspondence survives, so no relational
re-matching (and no ``c_a``) is needed.

A probing variant (``probe_columns``) composes the Section 3.3 pruning
with batching: probes are batched too.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    MethodExecution,
    finalize_execution,
    group_by_columns,
    instantiate_predicates,
    joining_rows,
    selection_nodes,
)
from repro.core.costmodel import CostEstimate, QueryCostInputs
from repro.core.query import JoinedPair, TextJoinQuery
from repro.relational.row import Row
from repro.textsys.query import and_all

__all__ = ["BatchedTupleSubstitution", "cost_batched_ts"]


class BatchedTupleSubstitution(JoinMethod):
    """B+TS: one invocation carries up to ``batch_limit`` tuple searches."""

    def __init__(self, batch_limit: Optional[int] = None) -> None:
        if batch_limit is not None and batch_limit < 1:
            raise ValueError("batch_limit must be positive when given")
        self.batch_limit = batch_limit

    @property
    def name(self) -> str:
        return "B+TS"

    def applies(self, query: TextJoinQuery, source) -> bool:
        """Needs a source that takes batched invocations."""
        return source.batch_limit is not None

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        rows = joining_rows(context, query)
        selections = selection_nodes(query)
        limit = context.client.batch_limit
        if self.batch_limit is not None:
            limit = min(limit, self.batch_limit)

        groups: List[List[Row]] = []
        searches = []
        for key, group in group_by_columns(rows, query.join_columns).items():
            instantiated = instantiate_predicates(
                query.join_predicates, group[0]
            )
            if instantiated is None:
                continue
            groups.append(group)
            searches.append(and_all(selections + instantiated))

        pairs: List[JoinedPair] = []
        with context.client.trace_phase("TS"):
            for start in range(0, len(searches), limit):
                batch = searches[start : start + limit]
                batch_groups = groups[start : start + limit]
                results = context.client.search_batch(batch)
                for group, result in zip(batch_groups, results):
                    for document in result:
                        for row in group:
                            pairs.append(JoinedPair(row, document))

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )


def cost_batched_ts(
    inputs: QueryCostInputs,
    query: TextJoinQuery,
    batch_limit: int,
) -> CostEstimate:
    """``C_{B+TS}``: TS with invocations divided by the batch size.

    ``C = c_i ceil(N_K / B) + c_p I(N_K, K) + c_s V(N_K, K)`` — only the
    invocation term changes relative to ``C_TS``.
    """
    import math

    columns = query.join_columns
    n = inputs.distinct(columns)
    constants = inputs.constants
    invocations = math.ceil(n / batch_limit) if n > 0 else 0
    from repro.core.costmodel import _long_form_cost

    return CostEstimate(
        method="B+TS",
        searches=invocations,
        invocation=constants.invocation * invocations,
        processing=constants.per_posting * n * inputs.postings_per_search(columns),
        transmission_short=constants.short_form * inputs.total_documents(n, columns),
        transmission_long=_long_form_cost(inputs, query),
    )
