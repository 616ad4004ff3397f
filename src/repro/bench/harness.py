"""The experiment harness: one function per paper table/figure.

Every function returns structured data (lists of rows / series) that the
benchmark files print and assert on.  Figures 1(A), 1(B) and 2 are cost-
formula sweeps — exactly how the paper produced them ("For each value,
we used the cost formulas to compute the costs of the methods") — while
Table 2 and the ranking/multi-join experiments run the real integrated
system and read the metered ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.costmodel import (
    QueryCostInputs,
    SelectionStatistics,
    cost_p_rtp,
    cost_p_ts,
    cost_sj_rtp,
    cost_ts,
)
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import (
    JoinMethod,
    ProbeRtp,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
)
from repro.core.optimizer import (
    PlanEstimator,
    enumerate_method_choices,
    optimize_multijoin,
)
from repro.core.executor import execute_plan
from repro.core.query import ResultShape, TextJoinQuery
from repro.gateway.cache import GatewayCache
from repro.gateway.costs import CostConstants
from repro.gateway.statistics import PredicateStatistics
from repro.gateway.tracing import CallTracer
from repro.workload.scenarios import (
    DEFAULT_CONSTANTS,
    Scenario,
    build_chain_scenario,
)

__all__ = [
    "MethodRun",
    "make_inputs",
    "run_methods",
    "table2_rows",
    "ranking_report",
    "fig1a_series",
    "fig1b_series",
    "fig2_grid",
    "multijoin_report",
    "enumeration_report",
    "cache_report",
]


# ----------------------------------------------------------------------
# analytic inputs (for figure sweeps and the Section 5 examples)
# ----------------------------------------------------------------------
def make_inputs(
    tuple_count: int,
    stats: Mapping[str, Tuple[float, float]],
    distinct: Mapping[str, int],
    document_count: int = 4000,
    term_limit: int = 70,
    g: int = 1,
    constants: Optional[CostConstants] = None,
    selection: Optional[SelectionStatistics] = None,
) -> QueryCostInputs:
    """Build cost-model inputs from raw parameters.

    ``stats`` maps column name to ``(selectivity, fanout)``; ``distinct``
    maps column name to its distinct count ``N_i``.
    """
    predicate_stats = {
        column: PredicateStatistics(
            column=column, field="field", selectivity=s, fanout=f
        )
        for column, (s, f) in stats.items()
    }
    distinct_counts = {
        frozenset([column]): count for column, count in distinct.items()
    }
    return QueryCostInputs(
        constants=constants or DEFAULT_CONSTANTS,
        document_count=document_count,
        term_limit=term_limit,
        g=g,
        tuple_count=tuple_count,
        predicate_stats=predicate_stats,
        selection=selection or SelectionStatistics.absent(),
        distinct_counts=distinct_counts,
    )


# ----------------------------------------------------------------------
# Table 2 (E3) and the ranking check (E7)
# ----------------------------------------------------------------------
@dataclass
class MethodRun:
    """One method executed on one query: measured and predicted cost.

    The cache fields are zero unless the run used a gateway cache
    (``run_methods(..., use_cache=True)``).
    """

    query_id: str
    method: str
    measured_cost: float
    predicted_cost: Optional[float]
    searches: int
    results: int
    wall_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0
    seconds_saved: float = 0.0


def methods_for(query: TextJoinQuery, scenario: Scenario) -> List[JoinMethod]:
    """The Table-2 method set applicable to a query."""
    methods: List[JoinMethod] = [TupleSubstitution()]
    if query.text_selections:
        methods.append(RelationalTextProcessing())
    if query.shape is ResultShape.DOCIDS:
        methods.append(SemiJoin())
    methods.append(SemiJoinRtp())
    if len(query.join_predicates) >= 2:
        probe_column = query.join_columns[0]
        methods.append(ProbeTupleSubstitution((probe_column,)))
        methods.append(ProbeRtp((probe_column,)))
    return methods


def run_methods(
    scenario: Scenario,
    query_id: str,
    with_predictions: bool = True,
    use_cache: bool = False,
) -> List[MethodRun]:
    """Execute every applicable method on one canonical query.

    ``use_cache=True`` gives each method its own fresh
    :class:`~repro.gateway.cache.GatewayCache` (so measurements stay
    independent across methods) and reports per-run hit/miss counts and
    simulated seconds saved.
    """
    query = scenario.query(query_id)
    predicted: Dict[str, float] = {}
    if with_predictions:
        inputs = build_cost_inputs(query, scenario.context())
        for choice in enumerate_method_choices(query, inputs):
            predicted[choice.name] = choice.estimate.total

    runs: List[MethodRun] = []
    baseline = None
    for method in methods_for(query, scenario):
        cache = GatewayCache() if use_cache else None
        context = scenario.context(cache=cache)
        execution = method.execute(query, context)
        keys = execution.result_keys()
        if baseline is None:
            baseline = keys
        elif keys != baseline:
            raise AssertionError(
                f"{method.name} returned different results on {query_id}"
            )
        runs.append(
            MethodRun(
                query_id=query_id,
                method=method.name,
                measured_cost=execution.cost.total,
                predicted_cost=predicted.get(method.name),
                searches=execution.cost.searches,
                results=len(keys),
                wall_seconds=execution.wall_seconds,
                cache_hits=cache.hits if cache else 0,
                cache_misses=cache.misses if cache else 0,
                seconds_saved=execution.cost.seconds_saved,
            )
        )
    return runs


def table2_rows(scenario: Scenario) -> Dict[str, List[MethodRun]]:
    """E3: execution costs of every method on Q1–Q4."""
    return {
        query_id: run_methods(scenario, query_id)
        for query_id in ("q1", "q2", "q3", "q4")
    }


def ranking_report(scenario: Scenario) -> List[Dict[str, Any]]:
    """E7: does the cost model predict the measured method ranking?"""
    report = []
    for query_id, runs in table2_rows(scenario).items():
        scored = [run for run in runs if run.predicted_cost is not None]
        measured_order = [
            run.method
            for run in sorted(scored, key=lambda run: run.measured_cost)
        ]
        predicted_order = [
            run.method
            for run in sorted(scored, key=lambda run: run.predicted_cost)
        ]
        report.append(
            {
                "query": query_id,
                "measured_order": measured_order,
                "predicted_order": predicted_order,
                "winner_match": measured_order[0] == predicted_order[0],
                "kendall_tau": kendall_tau(measured_order, predicted_order),
            }
        )
    return report


def kendall_tau(order_a: Sequence[str], order_b: Sequence[str]) -> float:
    """Kendall rank correlation between two orderings of the same items."""
    items = list(order_a)
    rank_b = {item: index for index, item in enumerate(order_b)}
    concordant = discordant = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if rank_b[items[i]] < rank_b[items[j]]:
                concordant += 1
            else:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total if total else 1.0


# ----------------------------------------------------------------------
# Figure sweeps (E4, E5, E6)
# ----------------------------------------------------------------------
def _q3_like_inputs(
    s1: float,
    n1_ratio: float = 12 / 109,
    tuple_count: int = 109,
    conditional_fanout: float = 100.0,
    s2: float = 18 / 109,
    f2: float = 0.4,
    constants: Optional[CostConstants] = None,
) -> Tuple[QueryCostInputs, TextJoinQuery]:
    """Analytic inputs shaped like Q3 with a swept probing column."""
    from repro.core.query import TextJoinPredicate

    n1 = max(1, int(round(n1_ratio * tuple_count)))
    inputs = make_inputs(
        tuple_count=tuple_count,
        stats={
            "r.name": (s1, s1 * conditional_fanout),
            "r.member": (s2, f2),
        },
        distinct={"r.name": n1, "r.member": tuple_count},
        constants=constants,
    )
    query = TextJoinQuery(
        relation="r",
        join_predicates=(
            TextJoinPredicate("r.name", "title"),
            TextJoinPredicate("r.member", "author"),
        ),
    )
    return inputs, query


def fig1a_series(
    s1_values: Sequence[float],
    constants: Optional[CostConstants] = None,
) -> Dict[str, List[float]]:
    """E4 / Figure 1(A): method costs as s1 sweeps 0..1 (Q3 shape)."""
    series: Dict[str, List[float]] = {
        "TS": [],
        "P1+TS": [],
        "P1+RTP": [],
        "SJ+RTP": [],
    }
    for s1 in s1_values:
        inputs, query = _q3_like_inputs(s1, constants=constants)
        series["TS"].append(cost_ts(inputs, query).total)
        series["P1+TS"].append(cost_p_ts(inputs, query, ("r.name",)).total)
        series["P1+RTP"].append(cost_p_rtp(inputs, query, ("r.name",)).total)
        series["SJ+RTP"].append(cost_sj_rtp(inputs, query).total)
    return series


def _q4_like_inputs(
    n1_ratio: float,
    tuple_count: int = 14,
    s1: float = 1.0,
    f1: float = 6.0,
    s2: float = 12 / 14,
    f2: float = 1.0,
    constants: Optional[CostConstants] = None,
) -> Tuple[QueryCostInputs, TextJoinQuery]:
    """Analytic inputs shaped like Q4 with a swept N1/N ratio."""
    from repro.core.query import TextJoinPredicate

    n1 = max(1, int(round(n1_ratio * tuple_count)))
    inputs = make_inputs(
        tuple_count=tuple_count,
        stats={
            "s.advisor": (s1, f1),
            "s.name": (s2, f2),
        },
        distinct={"s.advisor": n1, "s.name": tuple_count},
        constants=constants,
    )
    query = TextJoinQuery(
        relation="s",
        join_predicates=(
            TextJoinPredicate("s.advisor", "author"),
            TextJoinPredicate("s.name", "author"),
        ),
    )
    return inputs, query


def fig1b_series(
    ratios: Sequence[float],
    constants: Optional[CostConstants] = None,
) -> Dict[str, List[float]]:
    """E5 / Figure 1(B): method costs as N1/N sweeps (Q4 shape, s1 = 1)."""
    series: Dict[str, List[float]] = {
        "TS": [],
        "P1+TS": [],
        "P1+RTP": [],
        "SJ+RTP": [],
    }
    for ratio in ratios:
        inputs, query = _q4_like_inputs(ratio, constants=constants)
        series["TS"].append(cost_ts(inputs, query).total)
        series["P1+TS"].append(cost_p_ts(inputs, query, ("s.advisor",)).total)
        series["P1+RTP"].append(cost_p_rtp(inputs, query, ("s.advisor",)).total)
        series["SJ+RTP"].append(cost_sj_rtp(inputs, query).total)
    return series


def fig2_grid(
    s1_values: Sequence[float],
    ratio_values: Sequence[float],
    tuple_count: int = 100,
    constants: Optional[CostConstants] = None,
) -> List[List[str]]:
    """E6 / Figure 2: the TS vs P+TS winner at each (s1, N1/N) point.

    Returns a grid (rows indexed by ratio, columns by s1) of "TS" /
    "P+TS" labels.  The paper's analysis predicts P+TS wins roughly where
    ``s1 < 1 - N1/N``.
    """
    grid: List[List[str]] = []
    for ratio in ratio_values:
        row: List[str] = []
        for s1 in s1_values:
            inputs, query = _q3_like_inputs(
                s1,
                n1_ratio=ratio,
                tuple_count=tuple_count,
                conditional_fanout=2.0,
                constants=constants,
            )
            ts = cost_ts(inputs, query).total
            p_ts = cost_p_ts(inputs, query, ("r.name",)).total
            row.append("P+TS" if p_ts < ts else "TS")
        grid.append(row)
    return grid


# ----------------------------------------------------------------------
# Gateway cache (the PR's acceptance benchmark)
# ----------------------------------------------------------------------
def _cache_workloads(scenario: Scenario) -> List[Tuple[str, str, JoinMethod]]:
    """The workloads the cache benchmark re-executes against one cache."""
    return [
        ("TS x2", "q1", TupleSubstitution()),
        ("TS x2", "q3", TupleSubstitution()),
        (
            "repeated probes (P+TS x2)",
            "q3",
            ProbeTupleSubstitution((scenario.query("q3").join_columns[0],)),
        ),
    ]


def cache_report(scenario: Scenario) -> List[Dict[str, Any]]:
    """Re-execute each workload twice against one shared gateway cache.

    Each entry reports the first-run and second-run metered costs, the
    relative reduction, the cache hit/miss counts, and the simulated
    seconds the cache saved — the numbers behind the acceptance
    criterion that a warm cache cuts the second run's cost by >50%.
    """
    report: List[Dict[str, Any]] = []
    for label, query_id, method in _cache_workloads(scenario):
        cache = GatewayCache()
        tracer = CallTracer(enabled=True)
        context = scenario.context(cache=cache, tracer=tracer)
        query = scenario.query(query_id)

        first = method.execute(query, context)
        second = method.execute(query, context)
        if first.result_keys() != second.result_keys():
            raise AssertionError(
                f"cached re-run of {label} on {query_id} changed the results"
            )
        first_cost = first.cost.total
        second_cost = second.cost.total
        reduction = (
            (first_cost - second_cost) / first_cost if first_cost else 0.0
        )
        report.append(
            {
                "workload": label,
                "query": query_id,
                "method": method.name,
                "first_cost": first_cost,
                "second_cost": second_cost,
                "reduction": reduction,
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "hit_rate": cache.hit_rate,
                "seconds_saved": context.client.ledger.seconds_saved,
                "trace": tracer.summary(),
            }
        )
    return report


# ----------------------------------------------------------------------
# Multi-join (E8) and enumeration complexity (E9)
# ----------------------------------------------------------------------
def multijoin_report(
    scenario: Scenario, query, spaces: Sequence[str] = ("traditional", "prl", "extended")
) -> List[Dict[str, Any]]:
    """E8: optimize and execute one multi-join query in each space."""
    report = []
    baseline_keys = None
    for space in spaces:
        context = scenario.context()
        estimator = PlanEstimator(query, context)
        optimized = optimize_multijoin(query, estimator, space=space)
        execution = execute_plan(optimized.plan, query, scenario.context())
        keys = execution.result_keys()
        if baseline_keys is None:
            baseline_keys = keys
        elif keys != baseline_keys:
            raise AssertionError(f"space {space} changed the query results")
        report.append(
            {
                "space": space,
                "estimated_cost": optimized.estimated_cost,
                "measured_cost": execution.total_cost(),
                "rows": len(execution.rows),
                "plan": optimized.describe(),
                "join_tasks": optimized.join_tasks,
            }
        )
    return report


def enumeration_report(
    relation_counts: Sequence[int],
    spaces: Sequence[str] = ("traditional", "prl"),
) -> List[Dict[str, Any]]:
    """E9: optimizer effort vs number of relations (chain queries)."""
    import time

    report = []
    for count in relation_counts:
        scenario, query = build_chain_scenario(count)
        for space in spaces:
            context = scenario.context()
            estimator = PlanEstimator(query, context)
            started = time.perf_counter()
            optimized = optimize_multijoin(query, estimator, space=space)
            elapsed = time.perf_counter() - started
            report.append(
                {
                    "relations": count,
                    "space": space,
                    "join_tasks": optimized.join_tasks,
                    "plans_considered": optimized.plans_considered,
                    "subsets": optimized.subsets_enumerated,
                    "seconds": elapsed,
                    "estimated_cost": optimized.estimated_cost,
                }
            )
    return report
