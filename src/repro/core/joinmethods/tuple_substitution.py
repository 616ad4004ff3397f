"""Tuple substitution (TS) — Section 3.1.

The traditional method: a nested loop join with the relation as the
outer operand.  Every tuple is instantiated into a conjunctive search on
the text system (join values become selection terms).  Following the
paper's refinement, only one search is sent per *distinct* projection of
the relation over the join columns ("we need only send a query for each
distinct tuple in the projection of the relational table over the join
columns"); the naive one-search-per-tuple variant is available with
``distinct_only=False`` for the ablation benchmarks.
"""

from __future__ import annotations

import time
from typing import List

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
from repro.core.query import JoinedPair, TextJoinQuery
from repro.textsys.query import and_all

__all__ = ["TupleSubstitution"]


class TupleSubstitution(JoinMethod):
    """The TS join method (nested loop with instantiated text searches)."""

    def __init__(self, distinct_only: bool = True) -> None:
        self.distinct_only = distinct_only

    @property
    def name(self) -> str:
        return "TS" if self.distinct_only else "TS(naive)"

    def applies(self, query: TextJoinQuery, source) -> bool:
        """TS is universally applicable (Section 7.2)."""
        return True

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        rows = joining_rows(context, query)
        selections = selection_nodes(query)
        pairs: List[JoinedPair] = []

        if self.distinct_only:
            groups = group_by_columns(rows, query.join_columns)
            work = groups.values()
        else:
            work = [[row] for row in rows]

        with context.client.trace_phase("TS"):
            for group in work:
                representative = group[0]
                instantiated = instantiate_predicates(
                    query.join_predicates, representative
                )
                if instantiated is None:
                    # NULL or unindexable join value: the tuple cannot join
                    # and the search cannot even be expressed; no invocation.
                    continue
                result = context.client.search(
                    and_all(selections + instantiated)
                )
                for document in result:
                    for row in group:
                        pairs.append(JoinedPair(row, document))

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )
