"""The paper's primary contribution: text-join execution and optimization.

- :mod:`query` — the text-join query model;
- :mod:`joinmethods` — TS, RTP, SJ, SJ+RTP, P+TS, P+RTP;
- :mod:`costmodel` / :mod:`inputs` — the Section 4 cost model;
- :mod:`probe_select` — Section 5 optimal probe columns (Theorem 5.3);
- :mod:`optimizer` — single-join choice and the PrL-tree enumerator;
- :mod:`executor` — runs multi-join plans end to end.
"""

from repro.core.costmodel import (
    CostEstimate,
    QueryCostInputs,
    SelectionStatistics,
    VectorCostInputs,
    cost_p_rtp,
    cost_p_ts,
    cost_probe_phase,
    cost_probe_semijoin,
    cost_rtp,
    cost_sj,
    cost_sj_rtp,
    cost_ts,
    cost_vector_scan,
    cost_vector_topk,
)
from repro.core.heterogeneous import (
    HeterogeneousExecution,
    HeterogeneousJoinQuery,
    HeterogeneousPlan,
    build_vector_cost_inputs,
    execute_heterogeneous,
    explain_heterogeneous,
    plan_heterogeneous,
)
from repro.core.adaptive import (
    AdaptiveAttempt,
    AdaptiveExecution,
    execute_adaptively,
)
from repro.core.executor import PlanExecution, execute_plan
from repro.core.feedback import (
    EstimateRecord,
    FeedbackStore,
    PredicateObservation,
    QErrorReport,
    corpus_fingerprint,
    qerror,
    query_key,
)
from repro.core.inputs import build_cost_inputs, distinct_counts_for
from repro.core.joinmethods import (
    BatchedTupleSubstitution,
    JoinContext,
    JoinMethod,
    MethodExecution,
    ProbeRtp,
    VectorCorpusScan,
    VectorExecution,
    VectorJoinStrategy,
    VectorTopKProbe,
    cost_batched_ts,
    ensure_method_legal,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
)
from repro.core.optimizer import (
    MethodChoice,
    MultiJoinQuery,
    OptimizedPlan,
    PlanEstimator,
    RelationalJoinPredicate,
    choose_join_method,
    enumerate_method_choices,
    optimize_multijoin,
)
from repro.core.probe_select import (
    ProbeChoice,
    candidate_probe_sets,
    optimal_probe_columns,
)
from repro.core.query import (
    JoinedPair,
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
    VectorJoinPredicate,
)
from repro.core.explain import explain_query
from repro.core.surface import parse_query, render_query
from repro.core.textmatch import TextMatch, value_matches_field

__all__ = [
    "TextJoinQuery",
    "TextJoinPredicate",
    "VectorJoinPredicate",
    "TextSelection",
    "ResultShape",
    "JoinedPair",
    "JoinContext",
    "JoinMethod",
    "MethodExecution",
    "TupleSubstitution",
    "RelationalTextProcessing",
    "SemiJoin",
    "SemiJoinRtp",
    "ProbeTupleSubstitution",
    "ProbeRtp",
    "ProbeSemiJoin",
    "QueryCostInputs",
    "SelectionStatistics",
    "CostEstimate",
    "cost_ts",
    "cost_probe_phase",
    "cost_p_ts",
    "cost_rtp",
    "cost_sj",
    "cost_sj_rtp",
    "cost_p_rtp",
    "cost_probe_semijoin",
    "build_cost_inputs",
    "distinct_counts_for",
    "ProbeChoice",
    "candidate_probe_sets",
    "optimal_probe_columns",
    "MethodChoice",
    "choose_join_method",
    "enumerate_method_choices",
    "MultiJoinQuery",
    "RelationalJoinPredicate",
    "PlanEstimator",
    "OptimizedPlan",
    "optimize_multijoin",
    "PlanExecution",
    "execute_plan",
    "TextMatch",
    "value_matches_field",
    "BatchedTupleSubstitution",
    "cost_batched_ts",
    "AdaptiveAttempt",
    "AdaptiveExecution",
    "execute_adaptively",
    "EstimateRecord",
    "FeedbackStore",
    "PredicateObservation",
    "QErrorReport",
    "corpus_fingerprint",
    "qerror",
    "query_key",
    "parse_query",
    "render_query",
    "explain_query",
    "ensure_method_legal",
    "VectorCostInputs",
    "cost_vector_topk",
    "cost_vector_scan",
    "VectorExecution",
    "VectorJoinStrategy",
    "VectorTopKProbe",
    "VectorCorpusScan",
    "HeterogeneousJoinQuery",
    "HeterogeneousPlan",
    "HeterogeneousExecution",
    "build_vector_cost_inputs",
    "plan_heterogeneous",
    "execute_heterogeneous",
    "explain_heterogeneous",
]
