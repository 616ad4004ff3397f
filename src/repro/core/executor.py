"""Executing multi-join plans (left-deep and PrL trees) end to end.

The executor walks an annotated plan tree bottom-up:

- scans filter base tables;
- probe nodes reduce intermediates with metered probe searches;
- relational joins run as nested loops, evaluating relational predicates
  and — once documents are in flight — text predicates via
  :class:`~repro.core.textmatch.TextMatch`;
- the text join node materializes the intermediate and runs its
  annotated foreign-join method through the standard single-join
  machinery;
- a text scan fetches documents by the text selections alone (the text
  source as the outer-most operand).

Fetched documents become relational pseudo-rows under the query's
``text_source`` qualifier (``mercury.docid``, ``mercury.title``, ...).
When a downstream predicate needs a field that the short form does not
carry, the executor retrieves the long form (charged ``c_l``), exactly
as the real integration would have to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.feedback import EstimateRecord
from repro.core.joinmethods.base import (
    JoinContext,
    group_by_columns,
    selection_node,
)
from repro.core.optimizer.estimator import INTERMEDIATE
from repro.core.optimizer.multiquery import MultiJoinQuery
from repro.core.optimizer.plan import (
    JoinNode,
    PlanNode,
    ProbeNode,
    ScanNode,
    TextJoinNode,
    TextScanNode,
)
from repro.core.query import ResultShape, TextJoinPredicate, TextJoinQuery
from repro.core.textmatch import TextMatch
from repro.errors import PlanError, SearchSyntaxError
from repro.gateway.costs import CostLedger
from repro.relational.expressions import ColumnRef, Expression, conjoin
from repro.relational.operators import MaterializedInput, NestedLoopJoin
from repro.relational.row import Row
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document
from repro.textsys.query import and_all, data_term

__all__ = [
    "PlanExecution",
    "execute_plan",
    "document_schema",
    "document_row",
]


def document_schema(field_names: Sequence[str], text_source: str) -> Schema:
    """The relational schema documents take on once fetched locally."""
    columns = [Column(f"{text_source}.docid", DataType.VARCHAR)]
    columns.extend(
        Column(f"{text_source}.{name}", DataType.VARCHAR) for name in field_names
    )
    return Schema(columns)


def document_row(
    document: Document, schema: Schema, field_names: Sequence[str]
) -> Row:
    """Wrap a document as a relational pseudo-row (missing fields → NULL)."""
    values: List[Optional[str]] = [document.docid]
    values.extend(document.fields.get(name) for name in field_names)
    return Row(schema, values)


def _node_label(plan: PlanNode) -> str:
    if isinstance(plan, ScanNode):
        return f"Scan({plan.relation})"
    if isinstance(plan, TextScanNode):
        return "TextScan"
    if isinstance(plan, ProbeNode):
        bare = ",".join(col.split(".")[-1] for col in plan.probe_columns)
        return f"Probe({bare})"
    if isinstance(plan, JoinNode):
        return "Join"
    if isinstance(plan, TextJoinNode):
        return f"TextJoin[{plan.method.name}]"
    return type(plan).__name__


@dataclass
class PlanExecution:
    """The measured outcome of running one plan."""

    schema: Schema
    rows: List[Row]
    cost: CostLedger
    relational_comparisons: int
    wall_seconds: float
    #: Two records per plan node in completion (bottom-up) order: rows,
    #: and the subtree's charged seconds against the estimator's
    #: cumulative ``estimated_cost`` — the raw material for q-error
    #: reports (core/feedback).
    estimates: List[EstimateRecord] = field(default_factory=list)

    def total_cost(self, join_comparison_cost: float = 0.0001) -> float:
        """Simulated seconds: text-system cost plus priced relational work."""
        return self.cost.total + join_comparison_cost * self.relational_comparisons

    def result_keys(self) -> frozenset:
        """Each row as its ``(column, value)`` set: two plans that join
        the same relations in a different order produce equal keys."""
        names = self.schema.names()
        return frozenset(frozenset(zip(names, row.values)) for row in self.rows)

    def __repr__(self) -> str:
        return (
            f"PlanExecution({len(self.rows)} rows, text={self.cost.total:.3f}s, "
            f"comparisons={self.relational_comparisons})"
        )


class _PlanRunner:
    """One plan execution; holds shared state (context, counters)."""

    def __init__(self, query: MultiJoinQuery, context: JoinContext) -> None:
        self.query = query
        self.context = context
        self.comparisons = 0
        self.estimates: List[EstimateRecord] = []
        self.field_names: Tuple[str, ...] = context.client.field_names
        self.short_fields = set(context.client.short_fields)
        self.doc_schema = document_schema(self.field_names, query.text_source)

    # ------------------------------------------------------------------
    def run(self, plan: PlanNode) -> MaterializedInput:
        # Children run inside the dispatch, so the ledger delta spans the
        # whole subtree — the unit the estimator's cumulative
        # ``estimated_cost`` describes.  Capture is read-only: snapshotting
        # and diffing the ledger charges nothing (DESIGN invariant 14).
        before = self.context.client.ledger.snapshot()
        result = self._dispatch(plan)
        label = _node_label(plan)
        self.estimates.append(
            EstimateRecord(
                label, "node", plan.estimated_rows, float(len(result))
            )
        )
        self.estimates.append(
            EstimateRecord(
                label,
                "node",
                plan.estimated_cost,
                self.context.client.ledger.diff(before).total,
                unit="seconds",
            )
        )
        return result

    def _dispatch(self, plan: PlanNode) -> MaterializedInput:
        if isinstance(plan, ScanNode):
            return self._run_scan(plan)
        if isinstance(plan, TextScanNode):
            return self._run_text_scan(plan)
        if isinstance(plan, ProbeNode):
            return self._run_probe(plan)
        if isinstance(plan, JoinNode):
            return self._run_join(plan)
        if isinstance(plan, TextJoinNode):
            return self._run_text_join(plan)
        raise PlanError(f"unknown plan node {type(plan).__name__}")

    # ------------------------------------------------------------------
    def _run_scan(self, plan: ScanNode) -> MaterializedInput:
        table = self.context.catalog.table(plan.relation)
        return MaterializedInput(table.schema, list(table.scan(plan.predicate)))

    def _needs_long_form(self, fields: Sequence[str]) -> bool:
        return any(name not in self.short_fields for name in fields)

    def _doc_rows(
        self, documents: Sequence[Document], needed_fields: Sequence[str]
    ) -> List[Row]:
        """Documents as pseudo-rows, upgrading to long form when needed.

        All upgrades go out as one ``retrieve_many`` instead of one
        ``retrieve`` per document, so pooled/sharded transports overlap
        the fetches; the charges are identical (one ``c_l`` per distinct
        docid) because ``retrieve_many`` is itself per-docid metered.
        """
        documents = list(documents)
        if self._needs_long_form(needed_fields):
            all_fields = set(self.field_names)
            missing = [
                document.docid
                for document in documents
                if set(document.fields) != all_fields
            ]
            if missing:
                upgraded = {
                    document.docid: document
                    for document in self.context.client.retrieve_many(missing)
                }
                documents = [
                    upgraded.get(document.docid, document)
                    for document in documents
                ]
        return [
            document_row(document, self.doc_schema, self.field_names)
            for document in documents
        ]

    def _downstream_fields(self) -> List[str]:
        """Fields needed locally after documents are fetched."""
        needed = set()
        if self.query.long_form:
            needed.update(self.field_names)
        return sorted(needed)

    def _run_text_scan(self, plan: TextScanNode) -> MaterializedInput:
        with self.context.client.trace_phase("scan"):
            nodes = [selection_node(selection) for selection in plan.selections]
            result = self.context.client.search(and_all(nodes))
            # Every text predicate will be evaluated locally downstream, so
            # every predicate field must be present.
            needed = {p.field for p in self.query.text_predicates}
            needed.update(self._downstream_fields())
            rows = self._doc_rows(list(result), sorted(needed))
        return MaterializedInput(self.doc_schema, rows)

    def _run_probe(self, plan: ProbeNode) -> MaterializedInput:
        """Reduce the child's rows with one metered probe per value group.

        Edge semantics (pinned by ``tests/core/test_probe_edge_semantics``):

        - a row whose probe key contains NULL is **silently dropped** —
          NULLs never join under SQL semantics, so no probe is sent for
          it and it cannot survive the reducer;
        - a value group whose representative value is unindexable (the
          text system raises :class:`SearchSyntaxError` because the value
          tokenizes to no words) is likewise dropped without a probe: the
          text system could not even express the search, and a tuple the
          text system cannot search for can never join.

        Both rules mirror :func:`~repro.core.joinmethods.base.
        instantiate_predicates`, so probe reducers and full join methods
        prune exactly the same tuples.
        """
        child = self.run(plan.child)
        selections = [
            selection_node(selection) for selection in plan.selections
        ]
        probes: List[Tuple[List[Row], object]] = []
        for key, rows in group_by_columns(list(child), plan.probe_columns).items():
            if any(part is None for part in key):
                continue
            representative = rows[0]
            try:
                instantiated = [
                    data_term(
                        predicate.field,
                        str(representative[predicate.column]),
                    )
                    for predicate in plan.probe_predicates
                ]
            except SearchSyntaxError:
                # Unindexable value (no words): the group can never join.
                continue
            probes.append((rows, and_all(selections + instantiated)))
        kept: List[Row] = []
        client = self.context.client
        batch_size = self._probe_batch_size(len(probes))
        with client.trace_phase("probe"):
            if batch_size > 1:
                # The server accepts multi-query invocations: send the
                # instantiated probe expressions through search_batch in
                # batch_limit-sized chunks.  Per-group kept/dropped
                # semantics are unchanged — answers come back in query
                # order, and a group survives iff its result is
                # non-empty — but the c_i invocation cost amortizes over
                # each chunk and pooled transports overlap the wire time.
                for start in range(0, len(probes), batch_size):
                    chunk = probes[start : start + batch_size]
                    results = client.search_batch(
                        [query for _, query in chunk]
                    )
                    for (rows, _), result in zip(chunk, results):
                        if not result.is_empty:
                            kept.extend(rows)
            else:
                for rows, query in probes:
                    if client.probe(query):
                        kept.extend(rows)
        return MaterializedInput(child.output_schema, kept)

    def _probe_batch_size(self, probe_count: int) -> int:
        """How many probes to send per invocation (1 = serial probes).

        Batching needs a source that publishes a ``batch_limit``; with
        fewer than two probes the serial path is already optimal.
        """
        if probe_count < 2:
            return 1
        return self.context.client.batch_limit or 1

    def _text_match_expression(self, predicate: TextJoinPredicate) -> Expression:
        return TextMatch(
            value=ColumnRef(predicate.column),
            field_text=ColumnRef(f"{self.query.text_source}.{predicate.field}"),
        )

    def _run_join(self, plan: JoinNode) -> MaterializedInput:
        left = self.run(plan.left)
        right = self.run(plan.right)
        expressions: List[Expression] = [
            predicate.expression for predicate in plan.relational_predicates
        ]
        expressions.extend(
            self._text_match_expression(predicate)
            for predicate in plan.text_match_predicates
        )
        join = NestedLoopJoin(left, right, conjoin(expressions))
        rows = list(join)
        # A predicate-free nested loop performs |L| x |R| pair visits.
        pair_visits = (
            join.comparisons
            if join.predicate is not None
            else len(left) * len(right)
        )
        if plan.left.includes_text or plan.right.includes_text:
            # Matching fetched documents against tuples IS relational
            # text processing: charge c_a per pair, like the RTP methods.
            self.context.client.charge_rtp(pair_visits)
        else:
            self.comparisons += pair_visits
        return MaterializedInput(join.output_schema, rows)

    def _run_text_join(self, plan: TextJoinNode) -> MaterializedInput:
        child = self.run(plan.child)
        self.context.materialized[INTERMEDIATE] = list(child)
        try:
            synthetic = TextJoinQuery(
                relation=INTERMEDIATE,
                join_predicates=plan.available_predicates,
                text_selections=plan.selections,
                shape=ResultShape.PAIRS,
                long_form=self.query.long_form,
            )
            execution = plan.method.execute(synthetic, self.context)
        finally:
            self.context.materialized.pop(INTERMEDIATE, None)

        needed = {
            p.field
            for p in self.query.text_predicates
            if p not in plan.available_predicates
        }
        needed.update(self._downstream_fields())
        schema = child.output_schema.concat(self.doc_schema)
        # One _doc_rows call over the distinct fetched documents (first-
        # occurrence order): any long-form upgrades batch through a
        # single retrieve_many, with the same one-c_l-per-docid charges
        # the old per-pair cache produced.
        distinct: Dict[str, Document] = {}
        for pair in execution.pairs:
            distinct.setdefault(pair.document.docid, pair.document)
        doc_rows = self._doc_rows(list(distinct.values()), sorted(needed))
        doc_row_cache: Dict[str, Row] = dict(zip(distinct.keys(), doc_rows))
        rows: List[Row] = [
            Row(schema, pair.row.values + doc_row_cache[pair.document.docid].values)
            for pair in execution.pairs
        ]
        return MaterializedInput(schema, rows)


def execute_plan(
    plan: PlanNode, query: MultiJoinQuery, context: JoinContext
) -> PlanExecution:
    """Run a plan tree; returns rows plus the metered cost delta."""
    started_at = time.perf_counter()
    ledger_before = context.client.ledger.snapshot()
    runner = _PlanRunner(query, context)
    result = runner.run(plan)
    return PlanExecution(
        schema=result.output_schema,
        rows=list(result),
        cost=context.client.ledger.diff(ledger_before),
        relational_comparisons=runner.comparisons,
        wall_seconds=time.perf_counter() - started_at,
        estimates=runner.estimates,
    )
