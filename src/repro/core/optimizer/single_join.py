"""Single-foreign-join optimization (Section 5) over one method space.

"Optimization of queries that involve a single stored relation and the
text retrieval system reduces to the problem of choosing among the join
methods presented in Section 3 based on the ... cost model.  However, for
probe-based methods, we must also determine an optimal set of probe
columns."

:data:`METHOD_SPACES` is that choice as data: per ``source_kind``, the
ordered rows pairing a configured-method factory with its cost function.
Which methods are *legal* for a backend is which table they sit in; when
one *applies* to a query is its own :meth:`~repro.core.joinmethods.
JoinMethod.applies` rule.  :func:`enumerate_method_choices` walks the
table and ranks what applies; :func:`choose_join_method` picks the
winner.  Every planner ranks through these two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.costmodel import (
    CostEstimate,
    cost_probe_semijoin,
    cost_rtp,
    cost_sj,
    cost_sj_rtp,
    cost_ts,
    cost_vector_scan,
    cost_vector_topk,
)
from repro.core.joinmethods import (
    BatchedTupleSubstitution,
    JoinMethod,
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
    VectorCorpusScan,
    VectorTopKProbe,
    cost_batched_ts,
)
from repro.core.joinmethods.base import ensure_plannable
from repro.core.probe_select import optimal_probe_columns
from repro.errors import OptimizationError

__all__ = [
    "MethodChoice",
    "MethodSpaceEntry",
    "METHOD_SPACES",
    "enumerate_method_choices",
    "choose_join_method",
]


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


@dataclass(frozen=True)
class MethodSpaceEntry:
    """One row of a method space: how a method is configured and priced.

    A plain row builds its method with ``factory(query, inputs)`` and
    prices it with ``cost(inputs, query)``.  A probing row names the
    Section 5 search (:func:`~repro.core.probe_select.
    optimal_probe_columns` variant) that picks and prices its columns,
    and builds the method with ``factory(probe_columns)``.
    """

    factory: Callable[..., JoinMethod]
    cost: Optional[Callable[[Any, Any], CostEstimate]] = None
    probe_variant: Optional[str] = None

    def choose(
        self, query: Any, inputs: Any, exhaustive_probes: bool
    ) -> Optional[MethodChoice]:
        """The row's method, configured and priced — ``None`` if none applies."""
        if self.probe_variant is None:
            method = self.factory(query, inputs)
            if not method.applies(query, inputs):
                return None
            return MethodChoice(method, self.cost(inputs, query))
        best = optimal_probe_columns(
            inputs,
            query,
            variant=self.probe_variant,
            exhaustive=exhaustive_probes,
            admit=lambda columns: self.factory(columns).applies(query, inputs),
        )
        if best is None:
            return None
        return MethodChoice(self.factory(best.columns), best.estimate)


#: The method spaces, keyed by the ``source_kind`` they are sound for
#: (DESIGN invariant 15).  Row order is the tie-break: the ranking sort
#: is stable.  A new backend kind is one more key here, plus its
#: methods and a cost-inputs builder calling ``ensure_plannable``.
METHOD_SPACES: Dict[str, Tuple[MethodSpaceEntry, ...]] = {
    # Section 3: sound only under Boolean monotone semantics.
    "boolean": (
        MethodSpaceEntry(lambda query, inputs: TupleSubstitution(), cost_ts),
        MethodSpaceEntry(lambda query, inputs: SemiJoinRtp(), cost_sj_rtp),
        MethodSpaceEntry(
            lambda query, inputs: BatchedTupleSubstitution(inputs.batch_limit),
            lambda inputs, query: cost_batched_ts(
                inputs, query, inputs.batch_limit
            ),
        ),
        MethodSpaceEntry(lambda query, inputs: RelationalTextProcessing(), cost_rtp),
        MethodSpaceEntry(lambda query, inputs: SemiJoin(), cost_sj),
        MethodSpaceEntry(
            lambda query, inputs: ProbeSemiJoin(query.join_columns),
            lambda inputs, query: cost_probe_semijoin(
                inputs, query, query.join_columns
            ),
        ),
        MethodSpaceEntry(ProbeTupleSubstitution, probe_variant="P+TS"),
        MethodSpaceEntry(ProbeRtp, probe_variant="P+RTP"),
    ),
    # Section 8: ranked predicates (the "query" is a VectorJoinPredicate).
    "vector": (
        MethodSpaceEntry(
            lambda predicate, inputs: VectorTopKProbe(),
            lambda inputs, predicate: cost_vector_topk(inputs),
        ),
        MethodSpaceEntry(
            lambda predicate, inputs: VectorCorpusScan(),
            lambda inputs, predicate: cost_vector_scan(inputs),
        ),
    ),
}


def enumerate_method_choices(
    query: Any,
    inputs: Any,
    exhaustive_probes: bool = False,
) -> List[MethodChoice]:
    """All applicable methods for the query, ranked cheapest first.

    ``query`` is a :class:`~repro.core.query.TextJoinQuery` with
    :class:`~repro.core.costmodel.QueryCostInputs`, or a
    :class:`~repro.core.query.VectorJoinPredicate` with
    :class:`~repro.core.costmodel.VectorCostInputs`; inputs gathered from
    another kind of backend raise :class:`OptimizationError`.

    Applicability follows Section 3: TS and P+TS are universal; the RTP
    family needs its fields in the short form (RTP also text
    selections); SJ answers only semi-join (docid-shaped) queries, the
    pure probe method only tuple-shaped ones; a probe must be a proper,
    non-empty subset of the join columns.
    """
    ensure_plannable(query.source_kind, inputs)
    choices: List[MethodChoice] = []
    for entry in METHOD_SPACES[query.source_kind]:
        choice = entry.choose(query, inputs, exhaustive_probes)
        if choice is not None:
            choices.append(choice)
    choices.sort(key=lambda choice: choice.estimate.total)
    return choices


def choose_join_method(
    query: Any,
    inputs: Any,
    exhaustive_probes: bool = False,
) -> MethodChoice:
    """The cheapest applicable method for the query."""
    choices = enumerate_method_choices(
        query, inputs, exhaustive_probes=exhaustive_probes
    )
    if not choices:
        raise OptimizationError(f"no applicable join method for {query!r}")
    return choices[0]
