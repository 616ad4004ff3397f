"""Heterogeneous plans: one query, one optimizer, two text backends.

Section 8 observes that the paper's techniques "rely on the traditional
semantics of predicates" and are not directly applicable to ranking
models.  This module is the constructive answer: a
:class:`HeterogeneousJoinQuery` joins one stored relation against a
Boolean source *and* a vector source in a single query, and the planner
restricts each predicate to the method space that is sound for its
backend:

- the Boolean half keeps the full Section 3–5 space (TS, RTP, SJ,
  probing variants), priced by :func:`~repro.core.optimizer.
  enumerate_method_choices` with the Boolean backend's constants;
- the ranked half gets the V-TOPK / V-SCAN strategies only — the
  ``"vector"`` rows of the same method-space table, ranked by the same
  :func:`~repro.core.optimizer.enumerate_method_choices` with the vector
  backend's constants.

Execution runs the Boolean winner first (it is selective: a tuple with
no Boolean match cannot appear in the result), then the vector winner
over the survivors; each phase charges its own backend's ledger (DESIGN
invariant 15).  :func:`explain_heterogeneous` renders both ranked method
tables with per-backend "Chosen:" lines — the joint EXPLAIN the
multibackend scenario asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.costmodel import VectorCostInputs
from repro.core.explain import method_table
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods.base import (
    JoinContext,
    MethodExecution,
    ensure_plannable,
    rtp_fields_available,
)
from repro.core.joinmethods.vector import VectorExecution, vector_joining_rows
from repro.core.optimizer.single_join import MethodChoice, enumerate_method_choices
from repro.core.query import ResultShape, TextJoinQuery, VectorJoinPredicate
from repro.errors import PlanError
from repro.relational.row import Row
from repro.textsys.analysis import tokenize

__all__ = [
    "HeterogeneousJoinQuery",
    "HeterogeneousPlan",
    "HeterogeneousExecution",
    "build_vector_cost_inputs",
    "plan_heterogeneous",
    "execute_heterogeneous",
    "explain_heterogeneous",
]


@dataclass(frozen=True)
class HeterogeneousJoinQuery:
    """One relation joined against a Boolean and a vector text source.

    ``boolean`` carries the relation name, the local selection, the text
    selections and the Boolean join predicates; ``vector`` is the ranked
    predicate answered by the second backend.  The result is the set of
    tuples that satisfy *both* halves, each tuple paired with its ranked
    matches.
    """

    boolean: TextJoinQuery
    vector: VectorJoinPredicate

    def __post_init__(self) -> None:
        if self.boolean.shape is not ResultShape.TUPLES:
            raise PlanError(
                "the Boolean half of a heterogeneous query reduces the "
                "relation, so it must be TUPLES-shaped"
            )

    @property
    def relation(self) -> str:
        return self.boolean.relation

    def __repr__(self) -> str:
        return (
            f"HeterogeneousJoinQuery({self.boolean!r} AND {self.vector!r})"
        )


def build_vector_cost_inputs(
    predicate: VectorJoinPredicate,
    rows: Sequence[Row],
    context: JoinContext,
) -> VectorCostInputs:
    """Measure what the V-TOPK / V-SCAN formulas need for one predicate.

    Per-binding postings come from the backend's published per-term
    document frequencies — one directory read through the client over
    the bindings' distinct tokens, uncharged like
    ``exact_predicate_statistics``.  The expected result size is
    ``min(top_k, candidate documents)`` with the candidate count
    *overestimated* by the summed frequencies — a deliberate bias in the
    same spirit as the paper's distinct-count default: it favors V-SCAN
    only when V-TOPK is expected to be significantly worse.
    """
    client = context.client
    ensure_plannable(predicate.source_kind, client)
    bindings: List[Set[str]] = []
    seen = set()
    for row in rows:
        value = row[predicate.column]
        if value is None:
            continue
        text = str(value)
        tokens = set(tokenize(text))
        if text in seen or not tokens:
            continue
        seen.add(text)
        bindings.append(tokens)

    vocabulary = sorted(set().union(*bindings))
    frequency = dict(
        zip(vocabulary, client.document_frequencies(predicate.field, vocabulary))
    )
    total_postings = 0.0
    total_results = 0.0
    document_count = client.document_count
    for tokens in bindings:
        postings = sum(frequency[token] for token in tokens)
        total_postings += postings
        candidates = min(float(postings), float(document_count))
        if predicate.top_k is not None:
            candidates = min(candidates, float(predicate.top_k))
        total_results += candidates
    n = len(bindings)
    return VectorCostInputs(
        constants=client.ledger.constants,
        document_count=document_count,
        binding_count=float(n),
        postings_per_search=total_postings / n if n else 0.0,
        expected_results=total_results / n if n else 0.0,
        top_k=predicate.top_k,
        threshold=predicate.threshold,
        scan_visible=rtp_fields_available(client, (predicate,)),
    )


@dataclass
class HeterogeneousPlan:
    """Both halves planned: per-backend ranked choices plus their inputs."""

    query: HeterogeneousJoinQuery
    boolean_choices: List[MethodChoice]
    vector_choices: List[MethodChoice]
    boolean_inputs: object = None
    vector_inputs: Optional[VectorCostInputs] = None

    @property
    def boolean_choice(self) -> MethodChoice:
        return self.boolean_choices[0]

    @property
    def vector_choice(self) -> MethodChoice:
        return self.vector_choices[0]

    @property
    def total_estimate(self) -> float:
        return (
            self.boolean_choice.estimate.total
            + self.vector_choice.estimate.total
        )

    def __repr__(self) -> str:
        return (
            f"HeterogeneousPlan({self.boolean_choice.name} + "
            f"{self.vector_choice.name}, {self.total_estimate:.2f}s)"
        )


def plan_heterogeneous(
    query: HeterogeneousJoinQuery,
    boolean_context: JoinContext,
    vector_context: JoinContext,
    registry=None,
    g: int = 1,
    exhaustive_probes: bool = False,
    feedback=None,
) -> HeterogeneousPlan:
    """Plan both halves, each against its own backend's method space.

    The two contexts carry the two backends' metered clients — typically
    ``registry.client(name)`` for each — so every estimate is priced
    with the right backend's constants.  A Boolean client on the vector
    context (or vice versa) fails the per-backend legality checks
    downstream rather than silently mispricing.
    """
    boolean_inputs = build_cost_inputs(
        query.boolean,
        boolean_context,
        registry=registry,
        g=g,
        feedback=feedback,
    )
    boolean_choices = enumerate_method_choices(
        query.boolean, boolean_inputs, exhaustive_probes=exhaustive_probes
    )
    rows = vector_joining_rows(
        vector_context, query.relation, base_query=query.boolean
    )
    vector_inputs = build_vector_cost_inputs(query.vector, rows, vector_context)
    vector_choices = enumerate_method_choices(query.vector, vector_inputs)
    return HeterogeneousPlan(
        query=query,
        boolean_choices=boolean_choices,
        vector_choices=vector_choices,
        boolean_inputs=boolean_inputs,
        vector_inputs=vector_inputs,
    )


@dataclass
class HeterogeneousExecution:
    """The outcome of one heterogeneous query: both phases, combined."""

    plan: HeterogeneousPlan
    boolean_execution: MethodExecution
    vector_execution: VectorExecution
    #: Survivors of both halves: tuples with a Boolean match AND at least
    #: one ranked match, each paired with its ranked matches (best first).
    row_matches: List[Tuple[Row, tuple]] = field(default_factory=list)

    @property
    def rows(self) -> List[Row]:
        return [row for row, _ in self.row_matches]

    def __repr__(self) -> str:
        seconds = self.boolean_execution.cost.total + self.vector_execution.cost.total
        return (
            f"HeterogeneousExecution({self.plan.boolean_choice.name} + "
            f"{self.plan.vector_choice.name}, {len(self.row_matches)} rows, "
            f"{seconds:.3f}s)"
        )


def execute_heterogeneous(
    query: HeterogeneousJoinQuery,
    boolean_context: JoinContext,
    vector_context: JoinContext,
    plan: HeterogeneousPlan,
) -> HeterogeneousExecution:
    """Run a heterogeneous query as :func:`plan_heterogeneous` planned it.

    Phase order follows the reducing half: the Boolean winner runs
    first and shrinks the relation, then the vector winner ranks only
    the survivors' bindings.  Each phase's charges land on its own
    context's ledger — with registry-built clients, that is the
    backend's attributed ledger (invariant 15).
    """
    boolean_execution = plan.boolean_choice.method.execute(
        query.boolean, boolean_context
    )
    survivors = boolean_execution.tuples
    vector_execution = plan.vector_choice.method.run(
        query.vector, survivors, vector_context
    )
    row_matches = [
        (row, matches)
        for row, matches in vector_execution.row_matches
        if matches
    ]
    return HeterogeneousExecution(
        plan=plan,
        boolean_execution=boolean_execution,
        vector_execution=vector_execution,
        row_matches=row_matches,
    )


def explain_heterogeneous(plan: HeterogeneousPlan) -> str:
    """A joint EXPLAIN: per-backend method rankings and chosen methods."""
    query = plan.query
    lines: List[str] = []
    lines.append(f"Heterogeneous query over relation {query.relation!r}")
    lines.append(f"  Boolean half: {query.boolean!r}")
    lines.append(f"  Vector half:  {query.vector!r}")
    lines.append("")
    lines.append(
        method_table(
            "Boolean backend (Section 3 method space)", plan.boolean_choices
        )
    )
    lines.append(f"Chosen: {plan.boolean_choice.name}")
    lines.append("")
    lines.append(
        method_table(
            "Vector backend (ranked strategy space)", plan.vector_choices
        )
    )
    lines.append(f"Chosen: {plan.vector_choice.name}")
    lines.append("")
    lines.append(
        f"Predicted total: {plan.total_estimate:.2f}s "
        f"({plan.boolean_choice.name}: "
        f"{plan.boolean_choice.estimate.total:.2f}s + "
        f"{plan.vector_choice.name}: "
        f"{plan.vector_choice.estimate.total:.2f}s)"
    )
    return "\n".join(lines)
