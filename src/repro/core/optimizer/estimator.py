"""Cost and cardinality estimation for multi-join plans (Section 6).

The estimator prices whole PrL trees.  Text-system work uses the Section
4 cost model; relational joins use a simple nested-loop model at
``join_comparison_cost`` seconds per tuple comparison (the paper's
experiments ran relational joins locally — any monotone per-comparison
model preserves the Example 6.1 effect that reducing an input reduces
the relational join's cost).

Cardinality rules:

- scans are exact (the relational engine can count after local
  selections — what a real catalog estimates, made exact here so that
  measured and predicted plan rankings can be compared cleanly);
- relational join selectivity: ``1/max(d_a, d_b)`` for equality,
  ``1 - 1/max(d_a, d_b)`` for inequality, ``1/3`` for ranges, ``0.1``
  otherwise;
- a probe on columns ``J`` keeps ``S_{g,J}`` of the child's rows;
- a text-match predicate (post-text-join filtering) keeps ``f_c / D`` of
  the tuple-document pairs;
- the text join produces ``N * F_{g,K_avail}`` pairs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.costmodel import CostEstimate, QueryCostInputs
from repro.core.inputs import (
    predicate_statistics,
    selection_statistics,
    source_capabilities,
)
from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.multiquery import MultiJoinQuery, RelationalJoinPredicate
from repro.core.optimizer.plan import (
    JoinNode,
    PlanNode,
    ProbeNode,
    ScanNode,
    TextJoinNode,
    TextScanNode,
)
from repro.core.optimizer.single_join import MethodChoice, enumerate_method_choices
from repro.core.query import ResultShape, TextJoinPredicate, TextJoinQuery
from repro.errors import OptimizationError, PlanError, StatisticsError
from repro.gateway.statistics import (
    PredicateStatistics,
    TextStatisticsRegistry,
    joint_selectivity,
)
from repro.relational.expressions import Comparison, ColumnRef

__all__ = ["PlanEstimator", "INTERMEDIATE"]

#: Pseudo-relation name used for text joins over intermediates.
INTERMEDIATE = "~intermediate~"


class PlanEstimator:
    """Annotates plan trees with estimated rows and cumulative cost."""

    def __init__(
        self,
        query: MultiJoinQuery,
        context: JoinContext,
        registry: Optional[TextStatisticsRegistry] = None,
        g: int = 1,
        join_comparison_cost: float = 0.0001,
        feedback=None,
    ) -> None:
        self.query = query
        self.context = context
        # ``is None``: an empty registry is falsy but still the caller's.
        self.registry = TextStatisticsRegistry() if registry is None else registry
        self.g = g
        self.join_comparison_cost = join_comparison_cost
        #: Optional :class:`~repro.core.feedback.FeedbackStore`: observed
        #: execution statistics are blended into every text-predicate
        #: prior (prior-vs-observed weighting lives on the store).
        self.feedback = feedback
        self.join_tasks = 0  # complexity counter for E9

        self._scan_rows: Dict[str, List] = {}
        self._column_distinct: Dict[str, int] = {}
        client = context.client
        self._capabilities = source_capabilities(client)  # guard: first
        self._selection = selection_statistics(query.text_selections, client)
        self._prepare_relational_statistics()
        self._predicate_stats = predicate_statistics(
            query.text_predicates,
            lambda predicate: self._filtered_rows(
                predicate.column.split(".", 1)[0]
            ),
            client,
            registry=self.registry,
            feedback=feedback,
        )

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def _filtered_rows(self, relation: str) -> List:
        if relation not in self._scan_rows:
            table = self.context.catalog.table(relation)
            predicate = self.query.local_predicate(relation)
            rows = [
                row
                for row in table.scan()
                if predicate is None or predicate.evaluate(row) is True
            ]
            self._scan_rows[relation] = rows
        return self._scan_rows[relation]

    def _prepare_relational_statistics(self) -> None:
        for relation in self.query.relations:
            rows = self._filtered_rows(relation)
            table = self.context.catalog.table(relation)
            for column in table.schema.names():
                seen = {row[column] for row in rows if row[column] is not None}
                self._column_distinct[column] = len(seen)

    # ------------------------------------------------------------------
    # statistics access
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        return self.context.client.document_count

    def predicate_stats(self, column: str) -> PredicateStatistics:
        try:
            return self._predicate_stats[column]
        except KeyError:
            raise OptimizationError(
                f"no text statistics for column {column!r}"
            ) from None

    def base_distinct(self, column: str) -> int:
        try:
            return self._column_distinct[column]
        except KeyError:
            raise OptimizationError(
                f"no distinct count for column {column!r}"
            ) from None

    def probe_success(self, columns: Sequence[str]) -> float:
        """``S_{g,J}`` including the selection's all-or-nothing effect."""
        if self._selection.present and self._selection.result_size <= 0:
            return 0.0
        return joint_selectivity(
            [self.predicate_stats(column).selectivity for column in columns], self.g
        )

    # ------------------------------------------------------------------
    # plan annotation
    # ------------------------------------------------------------------
    def annotate(self, plan: PlanNode) -> PlanNode:
        """Fill ``estimated_rows`` / ``estimated_cost`` over the subtree.

        Degenerate statistics (empty corpus, zero-distinct or all-NULL
        join columns, empty relations) surface as a typed
        :class:`OptimizationError` naming the node — never a bare
        :class:`StatisticsError` or a ZeroDivisionError from deep inside
        a cost formula.
        """
        try:
            return self._annotate(plan)
        except StatisticsError as error:
            raise OptimizationError(
                f"cannot estimate {type(plan).__name__}: {error}"
            ) from error

    def _annotate(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, ScanNode):
            plan.estimated_rows = float(len(self._filtered_rows(plan.relation)))
            plan.estimated_cost = 0.0
            return plan

        if isinstance(plan, TextScanNode):
            constants = self.context.client.ledger.constants
            plan.estimated_rows = self._selection.result_size
            plan.estimated_cost = constants.search_cost(
                self._selection.postings, self._selection.result_size
            )
            return plan

        if isinstance(plan, ProbeNode):
            self.annotate(plan.child)
            estimate = self._probe_cost(plan)
            reduction = self.probe_success(
                tuple(
                    column
                    for column in plan.probe_columns
                    if column not in plan.child.probed_columns()
                )
                or plan.probe_columns
            )
            plan.estimated_rows = plan.child.estimated_rows * reduction
            plan.estimated_cost = plan.child.estimated_cost + estimate.total
            return plan

        if isinstance(plan, JoinNode):
            self.annotate(plan.left)
            self.annotate(plan.right)
            self.join_tasks += 1
            pairs = plan.left.estimated_rows * plan.right.estimated_rows
            selectivity = 1.0
            for predicate in plan.relational_predicates:
                selectivity *= self._relational_selectivity(predicate)
            for text_predicate in plan.text_match_predicates:
                stats = self.predicate_stats(text_predicate.column)
                selectivity *= min(1.0, stats.fanout / max(self.document_count, 1))
            # Joins over fetched documents are relational text processing
            # (c_a per pair); pure relational joins cost c_j per pair.
            if plan.left.includes_text or plan.right.includes_text:
                per_pair = self.context.client.ledger.constants.rtp_per_document
            else:
                per_pair = self.join_comparison_cost
            plan.estimated_rows = pairs * selectivity
            plan.estimated_cost = (
                plan.left.estimated_cost
                + plan.right.estimated_cost
                + per_pair * pairs
            )
            return plan

        if isinstance(plan, TextJoinNode):
            self.annotate(plan.child)
            return self.price_text_join(plan, self._best_text_join_choice(plan))

        raise PlanError(f"unknown plan node {type(plan).__name__}")

    # ------------------------------------------------------------------
    # node pricing helpers (also used by the enumerator)
    # ------------------------------------------------------------------
    def price_text_join(self, plan: TextJoinNode, choice: MethodChoice) -> TextJoinNode:
        """Fill a text join's estimates from the choice that runs it.

        The child must already be annotated.  The enumerator holds the
        :class:`MethodChoice` each node was built from and passes it;
        :meth:`annotate` looks it up for a hand-built plan.
        """
        inputs = self.text_join_inputs(plan.child, plan.available_predicates)
        columns = tuple(p.column for p in plan.available_predicates)
        plan.estimated_rows = inputs.total_documents(inputs.tuple_count, columns)
        plan.estimated_cost = plan.child.estimated_cost + choice.estimate.total
        return plan

    def _relational_selectivity(self, predicate: RelationalJoinPredicate) -> float:
        expression = predicate.expression
        if isinstance(expression, Comparison):
            left, right = expression.left, expression.right
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                d_left = max(self._column_distinct.get(left.name, 1), 1)
                d_right = max(self._column_distinct.get(right.name, 1), 1)
                top = max(d_left, d_right)
                if expression.op == "=":
                    return 1.0 / top
                if expression.op == "!=":
                    return 1.0 - 1.0 / top
                return 1.0 / 3.0
        return 0.1

    def text_join_inputs(
        self, child: PlanNode, predicates: Sequence[TextJoinPredicate]
    ) -> QueryCostInputs:
        """Section 4 cost inputs for a text join over an intermediate.

        Distinct counts of intermediate columns are estimated as the base
        distinct count, scaled by any probe reduction on that column and
        capped by the intermediate's cardinality.
        """
        rows = max(child.estimated_rows, 0.0)
        probed = child.probed_columns()
        distinct_counts: Dict[FrozenSet[str], int] = {}
        for predicate in predicates:
            base = self.base_distinct(predicate.column)
            if predicate.column in probed:
                base = base * self.predicate_stats(predicate.column).selectivity
            distinct_counts[frozenset([predicate.column])] = max(
                1, int(round(min(float(base), rows)))
            ) if rows >= 1 else 0
        return QueryCostInputs(
            g=self.g,
            tuple_count=int(round(rows)),
            predicate_stats={
                predicate.column: self.predicate_stats(predicate.column)
                for predicate in predicates
            },
            selection=self._selection,
            distinct_counts=distinct_counts,
            **self._capabilities,
        )

    def _synthetic_query(
        self, predicates: Sequence[TextJoinPredicate]
    ) -> TextJoinQuery:
        return TextJoinQuery(
            relation=INTERMEDIATE,
            join_predicates=tuple(predicates),
            text_selections=self.query.text_selections,
            shape=ResultShape.PAIRS,
            long_form=self.query.long_form,
        )

    def text_join_choices(
        self, child: PlanNode, predicates: Sequence[TextJoinPredicate]
    ) -> List[MethodChoice]:
        """Ranked join-method choices for a text join over ``child``.

        Degenerate statistics (an empty corpus most prominently) surface
        as a typed :class:`OptimizationError`, matching :meth:`annotate`.
        """
        self.join_tasks += 1
        inputs = self.text_join_inputs(child, predicates)
        synthetic = self._synthetic_query(predicates)
        try:
            return enumerate_method_choices(synthetic, inputs)
        except StatisticsError as error:
            raise OptimizationError(
                f"cannot enumerate text-join methods over "
                f"{sorted(p.column for p in predicates)}: {error}"
            ) from error

    def _best_text_join_choice(self, plan: TextJoinNode) -> MethodChoice:
        choices = self.text_join_choices(plan.child, plan.available_predicates)
        for choice in choices:
            if choice.estimate.method == plan.method.name:
                return choice
        return choices[0]

    def _probe_cost(self, plan: ProbeNode) -> CostEstimate:
        """``C_P`` for a probe node over its child."""
        from repro.core.costmodel import cost_probe_phase

        inputs = self.text_join_inputs(plan.child, plan.probe_predicates)
        synthetic = self._synthetic_query(plan.probe_predicates)
        return cost_probe_phase(inputs, synthetic, plan.probe_columns)
