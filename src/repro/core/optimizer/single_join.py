"""Single-foreign-join optimization (Section 5).

"Optimization of queries that involve a single stored relation and the
text retrieval system reduces to the problem of choosing among the join
methods presented in Section 3 based on the ... cost model.  However, for
probe-based methods, we must also determine an optimal set of probe
columns."

:func:`enumerate_method_choices` prices every applicable method — TS,
RTP, SJ, SJ+RTP, and the probing methods with their *optimal* probe
column sets — and returns them ranked; :func:`choose_join_method` picks
the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.costmodel import (
    CostEstimate,
    QueryCostInputs,
    cost_probe_semijoin,
    cost_rtp,
    cost_sj,
    cost_sj_rtp,
    cost_ts,
)
from repro.core.joinmethods import (
    JoinMethod,
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
)
from repro.core.probe_select import optimal_probe_columns
from repro.core.query import ResultShape, TextJoinQuery
from repro.errors import OptimizationError

__all__ = ["MethodChoice", "enumerate_method_choices", "choose_join_method"]


@dataclass(frozen=True)
class MethodChoice:
    """A configured join method with its predicted cost."""

    method: JoinMethod
    estimate: CostEstimate

    @property
    def name(self) -> str:
        return self.estimate.method

    def __repr__(self) -> str:
        return f"MethodChoice({self.name}, {self.estimate.total:.2f}s)"


def enumerate_method_choices(
    query: TextJoinQuery,
    inputs: QueryCostInputs,
    exhaustive_probes: bool = False,
) -> List[MethodChoice]:
    """All applicable methods for the query, ranked cheapest first.

    Applicability follows Section 3: TS and SJ+RTP are universal; RTP
    needs text selections; SJ answers only semi-join (docid-shaped)
    queries; probing variants need at least two join predicates (a probe
    must be a proper, non-empty subset of the join columns); the pure
    probe method answers only tuple-shaped semi-joins.
    """
    source_kind = inputs.source_kind
    if source_kind != "boolean":
        # Per-backend method legality: every method below assumes Boolean
        # monotone semantics (probing prunes, semijoins batch term
        # subsets), which ranking backends violate — Section 8.  Vector
        # predicates are planned by the heterogeneous planner's own
        # strategy space (V-TOPK / V-SCAN), never this one.
        raise OptimizationError(
            f"the Section 3 method space is sound only for Boolean "
            f"sources; this backend is {source_kind!r} (see "
            f"repro.core.heterogeneous for ranked predicates)"
        )
    choices: List[MethodChoice] = []
    predicate_fields = [p.field for p in query.join_predicates]
    rtp_possible = inputs.fields_visible(predicate_fields)

    choices.append(MethodChoice(TupleSubstitution(), cost_ts(inputs, query)))
    if rtp_possible:
        choices.append(MethodChoice(SemiJoinRtp(), cost_sj_rtp(inputs, query)))

    if inputs.batch_limit is not None:
        from repro.core.joinmethods.batched import (
            BatchedTupleSubstitution,
            cost_batched_ts,
        )

        choices.append(
            MethodChoice(
                BatchedTupleSubstitution(inputs.batch_limit),
                cost_batched_ts(inputs, query, inputs.batch_limit),
            )
        )

    if query.text_selections and rtp_possible:
        choices.append(
            MethodChoice(RelationalTextProcessing(), cost_rtp(inputs, query))
        )

    if query.shape is ResultShape.DOCIDS:
        choices.append(MethodChoice(SemiJoin(), cost_sj(inputs, query)))

    if query.shape is ResultShape.TUPLES:
        full = tuple(query.join_columns)
        choices.append(
            MethodChoice(
                ProbeSemiJoin(full), cost_probe_semijoin(inputs, query, full)
            )
        )

    if len(query.join_predicates) >= 2:
        p_ts = optimal_probe_columns(
            inputs, query, variant="P+TS", exhaustive=exhaustive_probes
        )
        if p_ts is not None:
            choices.append(
                MethodChoice(ProbeTupleSubstitution(p_ts.columns), p_ts.estimate)
            )
        if rtp_possible:
            p_rtp = optimal_probe_columns(
                inputs, query, variant="P+RTP", exhaustive=exhaustive_probes
            )
            if p_rtp is not None:
                choices.append(
                    MethodChoice(ProbeRtp(p_rtp.columns), p_rtp.estimate)
                )

    choices.sort(key=lambda choice: choice.estimate.total)
    return choices


def choose_join_method(
    query: TextJoinQuery,
    inputs: QueryCostInputs,
    exhaustive_probes: bool = False,
) -> MethodChoice:
    """The cheapest applicable method for the query."""
    choices = enumerate_method_choices(
        query, inputs, exhaustive_probes=exhaustive_probes
    )
    if not choices:
        raise OptimizationError(f"no applicable join method for {query!r}")
    return choices[0]
