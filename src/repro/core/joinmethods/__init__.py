"""The foreign-join execution methods of Section 3.

- :class:`TupleSubstitution` (TS) — one instantiated search per distinct
  joining tuple;
- :class:`RelationalTextProcessing` (RTP) — one selection-only search,
  then SQL string matching;
- :class:`SemiJoin` (SJ) / :class:`SemiJoinRtp` (SJ+RTP) — OR-batched
  searches within the term limit M;
- :class:`ProbeTupleSubstitution` (P+TS), :class:`ProbeRtp` (P+RTP),
  :class:`ProbeSemiJoin` — probing-based methods that prune fail-queries.

Ranked (vector) backends get a separate method space —
:class:`VectorTopKProbe` (V-TOPK) and :class:`VectorCorpusScan` (V-SCAN)
— because every Section 3 method assumes Boolean monotone semantics;
:func:`ensure_method_legal` enforces the split at run time (its
plan-time twin is :func:`~repro.core.joinmethods.base.ensure_plannable`).
"""

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    MethodExecution,
    ensure_method_legal,
    group_by_columns,
    instantiate_predicates,
    joining_rows,
    rtp_match,
    selection_node,
    selection_nodes,
)
from repro.core.joinmethods.batched import BatchedTupleSubstitution, cost_batched_ts
from repro.core.joinmethods.probing import (
    ProbeCache,
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
)
from repro.core.joinmethods.rtp import RelationalTextProcessing
from repro.core.joinmethods.semijoin import (
    SemiJoin,
    SemiJoinRtp,
    SingleColumnSemiJoinRtp,
    batch_conjuncts,
)
from repro.core.joinmethods.tuple_substitution import TupleSubstitution
from repro.core.joinmethods.vector import (
    VectorCorpusScan,
    VectorExecution,
    VectorJoinStrategy,
    VectorTopKProbe,
    vector_joining_rows,
)

__all__ = [
    "JoinContext",
    "JoinMethod",
    "MethodExecution",
    "ensure_method_legal",
    "VectorExecution",
    "VectorJoinStrategy",
    "VectorTopKProbe",
    "VectorCorpusScan",
    "vector_joining_rows",
    "TupleSubstitution",
    "BatchedTupleSubstitution",
    "cost_batched_ts",
    "RelationalTextProcessing",
    "SemiJoin",
    "SemiJoinRtp",
    "SingleColumnSemiJoinRtp",
    "batch_conjuncts",
    "ProbeCache",
    "ProbeTupleSubstitution",
    "ProbeRtp",
    "ProbeSemiJoin",
    "joining_rows",
    "selection_node",
    "selection_nodes",
    "instantiate_predicates",
    "group_by_columns",
    "rtp_match",
]
