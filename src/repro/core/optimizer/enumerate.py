"""The modified join-enumeration algorithm (Section 6).

The traditional System-R dynamic program sequences the ``n`` relations
(plus the text system, treated as one more unit in the order) into the
best left-deep tree.  The modified algorithm enumerates the same
subsets, but at each extension step considers the four PrL alternatives:

    (a) joinPlan(optPlan(S_j), R_i)
    (b) joinPlan(probe(optPlan(S_j)), R_i)
    (c) joinPlan(optPlan(S_j), probe(R_i))
    (d) joinPlan(probe(optPlan(S_j)), probe(R_i))

Probe nodes are only legal before the text system's position in the
order, and probe-column sets are chosen with the Section 5 machinery
(bounded by Theorem 5.3 to at most ``min(k, 2g)`` columns).

Because alternative (a) is always considered, the chosen plan's
estimated cost is never worse than the best left-deep plan — the
paper's first desideratum.  The enumerator also exposes counters
(``join_tasks``, ``plans_considered``) so the E9 benchmark can verify
the ``O(n^2 2^{n-1})`` complexity claim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.core.optimizer.estimator import INTERMEDIATE, PlanEstimator
from repro.core.optimizer.multiquery import TEXT_SOURCE, MultiJoinQuery
from repro.core.optimizer.plan import (
    JoinNode,
    PlanNode,
    ProbeNode,
    ScanNode,
    TextJoinNode,
    TextScanNode,
    plan_signature,
)
from repro.core.probe_select import candidate_probe_sets
from repro.core.query import TextJoinPredicate, TextJoinQuery
from repro.errors import OptimizationError

__all__ = ["OptimizedPlan", "SubsetDecision", "optimize_multijoin"]


@dataclass
class SubsetDecision:
    """The enumerator's record for one DP subset: what it weighed."""

    subset: FrozenSet[str]
    candidates: Tuple[Tuple[str, float], ...]  # (signature, estimated cost)
    winner: str


@dataclass
class OptimizedPlan:
    """The enumerator's output: the winning plan plus search statistics."""

    plan: PlanNode
    estimated_cost: float
    estimated_rows: float
    join_tasks: int
    plans_considered: int
    subsets_enumerated: int
    #: Per-subset decision log (Example 6.2's "the optimizer also
    #: considers the costs of {student', faculty}, ...").
    trace: Tuple[SubsetDecision, ...] = ()

    def describe(self) -> str:
        return self.plan.describe()


def _probe_candidates(
    query: MultiJoinQuery,
    plan: PlanNode,
    estimator: PlanEstimator,
) -> List[Tuple[TextJoinPredicate, ...]]:
    """Probe-predicate subsets applicable to ``plan`` (Theorem 5.3 bound)."""
    if plan.includes_text:
        return []
    relations = sorted(plan.relations())
    available = tuple(
        predicate
        for predicate in query.text_predicates_within(relations)
        if predicate.column not in plan.probed_columns()
    )
    if not available:
        return []
    # A probe node is the reducer: any non-empty subset, the full set
    # included, within the Section 5 size bound.
    probe_query = TextJoinQuery(INTERMEDIATE, available)
    return [
        probe_query.predicates_on(columns)
        for columns in candidate_probe_sets(
            probe_query, estimator.g, allow_full=True
        )
    ]


def _with_probes(
    query: MultiJoinQuery,
    plan: PlanNode,
    estimator: PlanEstimator,
) -> List[PlanNode]:
    """The plan itself plus every single-probe-reduced variant of it."""
    variants: List[PlanNode] = [plan]
    for subset in _probe_candidates(query, plan, estimator):
        probe = ProbeNode(
            child=plan,
            probe_columns=tuple(predicate.column for predicate in subset),
            probe_predicates=subset,
            selections=query.text_selections,
        )
        estimator.annotate(probe)
        variants.append(probe)
    return variants


def _join_alternatives(
    query: MultiJoinQuery,
    left_plan: PlanNode,
    right_relation: str,
    estimator: PlanEstimator,
    probes: bool,
) -> List[PlanNode]:
    """All (a)-(d) ways to extend ``left_plan`` with ``right_relation``."""
    right_scan = ScanNode(
        relation=right_relation,
        predicate=query.local_predicate(right_relation),
    )
    estimator.annotate(right_scan)

    if probes and not left_plan.includes_text:
        lefts = _with_probes(query, left_plan, estimator)
        rights = _with_probes(query, right_scan, estimator)
    else:
        # Probe nodes may only precede the text join node ("any probes
        # following the text join node will be redundant").
        lefts = [left_plan]
        rights = [right_scan]

    done = sorted(left_plan.relations() - {TEXT_SOURCE})
    relational = query.join_predicates_between(done, right_relation)
    text_matches = (
        query.text_predicates_of(right_relation)
        if left_plan.includes_text
        else ()
    )

    plans: List[PlanNode] = []
    for left in lefts:
        for right in rights:
            join = JoinNode(
                left=left,
                right=right,
                relational_predicates=relational,
                text_match_predicates=text_matches,
            )
            estimator.annotate(join)
            plans.append(join)
    return plans


def _bushy_join_alternatives(
    query: MultiJoinQuery,
    left_plan: PlanNode,
    right_plan: PlanNode,
    estimator: PlanEstimator,
    probes: bool,
) -> List[PlanNode]:
    """Join two composite plans (bushy trees).

    At most one side may carry the text source; the non-text side's text
    predicates become local ``TextMatch`` filters when the other side
    already fetched documents.
    """
    if left_plan.includes_text and right_plan.includes_text:
        return []
    left_relations = sorted(left_plan.relations() - {TEXT_SOURCE})
    right_relations = sorted(right_plan.relations() - {TEXT_SOURCE})
    relational = query.join_predicates_across(left_relations, right_relations)
    if left_plan.includes_text:
        text_matches = query.text_predicates_within(right_relations)
    elif right_plan.includes_text:
        text_matches = query.text_predicates_within(left_relations)
    else:
        text_matches = ()

    lefts = (
        _with_probes(query, left_plan, estimator)
        if probes and not left_plan.includes_text
        else [left_plan]
    )
    rights = (
        _with_probes(query, right_plan, estimator)
        if probes and not right_plan.includes_text
        else [right_plan]
    )
    plans: List[PlanNode] = []
    for left in lefts:
        for right in rights:
            join = JoinNode(
                left=left,
                right=right,
                relational_predicates=relational,
                text_match_predicates=text_matches,
            )
            estimator.annotate(join)
            plans.append(join)
    return plans


def _text_join_alternatives(
    query: MultiJoinQuery,
    child: PlanNode,
    estimator: PlanEstimator,
) -> List[PlanNode]:
    """Ways to place the text system on top of ``child``."""
    relations = sorted(child.relations())
    available = query.text_predicates_within(relations)
    if not available:
        return []
    plans: List[PlanNode] = []
    for choice in estimator.text_join_choices(child, available):
        node = TextJoinNode(
            child=child,
            method=choice.method,
            available_predicates=available,
            selections=query.text_selections,
        )
        # ``join_tasks`` is E9's pinned complexity counter: each priced
        # alternative counts as one task plus its child's re-annotation.
        estimator.annotate(child)
        estimator.join_tasks += 1
        plans.append(estimator.price_text_join(node, choice))
    return plans


def optimize_multijoin(
    query: MultiJoinQuery,
    estimator: PlanEstimator,
    space: str = "extended",
) -> OptimizedPlan:
    """Dynamic-programming enumeration over an execution space.

    ``space`` selects the execution space:

    - ``"traditional"`` — the paper's baseline: left-deep trees where the
      text join node evaluates *all* text join predicates together (so it
      must follow every relation carrying one), no probe nodes, no text
      scans;
    - ``"prl"`` — the paper's contribution: traditional plus probe nodes
      before the text join (alternatives (a)–(d));
    - ``"extended"`` (default) — this library's superset: additionally
      allows the text source as the outer operand (fetch by selections,
      then match locally) and deferring text predicates of later-joined
      relations to local ``TextMatch`` filters;
    - ``"bushy"`` — extended plus bushy join trees: a join's right input
      may itself be a composite plan, so the DP considers every 2-way
      partition of each subset (the "[CDY] other choices of execution
      space" direction).
    """
    if space not in ("traditional", "prl", "extended", "bushy"):
        raise OptimizationError(f"unknown execution space {space!r}")
    probes = space != "traditional"
    allow_text_scan = space in ("extended", "bushy") and bool(query.text_selections)
    defer_text_predicates = space in ("extended", "bushy")
    bushy = space == "bushy"
    text_pred_relations = frozenset(query.relations_with_text_predicates())

    units: Tuple[str, ...] = tuple(query.relations) + (TEXT_SOURCE,)
    best: Dict[FrozenSet[str], PlanNode] = {}
    plans_considered = 0
    subsets_enumerated = 0
    trace: List[SubsetDecision] = []

    # ------------------------------------------------------------------
    # size-1 subsets
    # ------------------------------------------------------------------
    for relation in query.relations:
        scan = ScanNode(relation=relation, predicate=query.local_predicate(relation))
        estimator.annotate(scan)
        best[frozenset({relation})] = scan
        plans_considered += 1
    if allow_text_scan:
        text_scan = TextScanNode(selections=query.text_selections)
        estimator.annotate(text_scan)
        best[frozenset({TEXT_SOURCE})] = text_scan
        plans_considered += 1

    # ------------------------------------------------------------------
    # larger subsets
    # ------------------------------------------------------------------
    for size in range(2, len(units) + 1):
        for subset in itertools.combinations(units, size):
            key = frozenset(subset)
            subsets_enumerated += 1
            candidates: List[PlanNode] = []
            for unit in subset:
                remainder = key - {unit}
                left_plan = best.get(remainder)
                if left_plan is None:
                    continue
                if unit == TEXT_SOURCE:
                    if not defer_text_predicates and not (
                        text_pred_relations <= remainder
                    ):
                        # Traditional/PrL spaces evaluate all text join
                        # predicates together at the text join node.
                        continue
                    candidates.extend(
                        _text_join_alternatives(query, left_plan, estimator)
                    )
                else:
                    if TEXT_SOURCE in remainder and not defer_text_predicates:
                        if unit in text_pred_relations:
                            continue
                    candidates.extend(
                        _join_alternatives(
                            query, left_plan, unit, estimator, probes
                        )
                    )
            if bushy:
                # Every 2-way partition with a composite (size >= 2) right
                # side; composite-left/single-right is covered above.
                members = sorted(key)
                for mask in range(1, 1 << len(members)):
                    left_side = frozenset(
                        members[i]
                        for i in range(len(members))
                        if mask & (1 << i)
                    )
                    right_side = key - left_side
                    if len(right_side) < 2 or not left_side:
                        continue
                    left_plan = best.get(left_side)
                    right_plan = best.get(right_side)
                    if left_plan is None or right_plan is None:
                        continue
                    candidates.extend(
                        _bushy_join_alternatives(
                            query, left_plan, right_plan, estimator, probes
                        )
                    )
            plans_considered += len(candidates)
            if candidates:
                winner = min(candidates, key=lambda plan: plan.estimated_cost)
                best[key] = winner
                trace.append(
                    SubsetDecision(
                        subset=key,
                        candidates=tuple(
                            (plan_signature(plan), plan.estimated_cost)
                            for plan in candidates
                        ),
                        winner=plan_signature(winner),
                    )
                )

    full = frozenset(units)
    plan = best.get(full)
    if plan is None:
        # Queries with text predicates but no selections cannot start from
        # a TextScan; the full set is reachable only through a TextJoin.
        raise OptimizationError(
            "no plan covers every relation and the text source; the query "
            "may lack both text selections and usable text predicates"
        )
    return OptimizedPlan(
        plan=plan,
        estimated_cost=plan.estimated_cost,
        estimated_rows=plan.estimated_rows,
        join_tasks=estimator.join_tasks,
        plans_considered=plans_considered,
        subsets_enumerated=subsets_enumerated,
        trace=tuple(trace),
    )
