"""Relational Text Processing (RTP) — Section 3.2.

A single search containing only the *text selection* conditions is sent
to the text system; the returned documents are then matched against the
relational tuples with SQL string processing on the relational side.

RTP requires text selections: without them the single search would be
unconstrained, and a Boolean text system cannot return "all documents".
It is attractive when the text selections are highly selective and the
invocation cost is high (one invocation versus N for TS).
"""

from __future__ import annotations

import time

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    MethodExecution,
    finalize_execution,
    joining_rows,
    rtp_fields_available,
    rtp_match_pairs,
    selection_nodes,
)
from repro.core.query import TextJoinQuery
from repro.textsys.query import and_all

__all__ = ["RelationalTextProcessing"]


class RelationalTextProcessing(JoinMethod):
    """The RTP join method: one selection-only search, then SQL matching."""

    name = "RTP"

    def applies(self, query: TextJoinQuery, source) -> bool:
        """RTP needs a text selection to bound the search, and every join
        predicate's field must be visible in the short form so SQL string
        matching can evaluate it."""
        return bool(query.text_selections) and rtp_fields_available(
            source, query.join_predicates
        )

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        with context.client.trace_phase("RTP"):
            rows = joining_rows(context, query)
            result = context.client.search(and_all(selection_nodes(query)))

            # SQL string matching of every fetched document against every
            # joining tuple; each (document, tuple) comparison costs c_a.
            pairs = rtp_match_pairs(
                context, list(result), rows, query.join_predicates
            )

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )
