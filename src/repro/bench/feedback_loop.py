"""The feedback loop, demonstrated: stale statistics → abort → learn → win.

One skewed-selectivity workload shows the whole estimator loop closing.
The optimizer plans Q4 from *stale* predicate statistics (the kind a
registry accumulates when the corpus drifts after sampling): advisors
look like rare authors, students like prolific ones.  Run 1 therefore
picks the guarded P+RTP plan with a miscalibrated fetch cap, aborts,
re-optimizes mid-query with the guard's observed counters, and finishes
on a safe-but-slow fallback — paying for the misestimate.  The abort's
evidence lands in a :class:`~repro.core.feedback.FeedbackStore`; run 2
blends it into the same stale priors and picks the truly cheapest method
up front, with a correctly calibrated cap and a lower ledger total.

:func:`feedback_loop_report` packages both runs (plus the invariant-14
identity check: recording feedback never changes what a plan charges)
for the CLI demo, the benchmark, and the CI smoke test.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.adaptive import AdaptiveExecution, execute_adaptively
from repro.core.feedback import FeedbackStore
from repro.core.inputs import build_cost_inputs
from repro.core.optimizer.single_join import enumerate_method_choices
from repro.gateway.statistics import PredicateStatistics, TextStatisticsRegistry
from repro.workload.scenarios import Scenario, build_default_scenario

__all__ = ["stale_statistics_registry", "feedback_loop_report"]

#: The planted misestimates: the truth (seed 7) is advisors with fanout
#: 6.0 and students with fanout ~1.14, both near-certain authors.  The
#: stale registry claims the opposite skew — advisors barely publish
#: (so the P+RTP guard arms a far-too-small fetch cap) and students
#: flood the corpus (so the OR-batched semi-join looks expensive and
#: cannot shadow the probing plan in run 1's ranking).
STALE_ADVISOR = PredicateStatistics(
    "student.advisor", "author", selectivity=1.0, fanout=1.0
)
STALE_NAME = PredicateStatistics(
    "student.name", "author", selectivity=0.9, fanout=50.0
)


def stale_statistics_registry() -> TextStatisticsRegistry:
    """A registry pre-loaded with the drifted Q4 statistics."""
    registry = TextStatisticsRegistry()
    registry.put(STALE_ADVISOR)
    registry.put(STALE_NAME)
    return registry


def _run_once(
    scenario: Scenario,
    registry: TextStatisticsRegistry,
    store: Optional[FeedbackStore],
    safety_factor: float,
) -> Dict[str, Any]:
    """One planning-and-execution pass of Q4 against the stale registry."""
    query = scenario.q4()
    context = scenario.context()
    inputs = build_cost_inputs(query, context, registry=registry, feedback=store)
    ranking = [
        (choice.name, choice.estimate.total)
        for choice in enumerate_method_choices(query, inputs)
    ]
    execution = execute_adaptively(
        query, context, inputs, safety_factor=safety_factor, feedback=store
    )
    return {
        "ranking": ranking,
        "first_choice": ranking[0][0],
        "winner": execution.execution.method,
        "total_cost": execution.total_cost,
        "reoptimizations": execution.reoptimizations,
        "attempts": [
            {
                "method": attempt.method,
                "aborted": attempt.aborted,
                "spent_cost": attempt.spent_cost,
                "predicted_cost": attempt.predicted_cost,
            }
            for attempt in execution.attempts
        ],
        "pairs": sorted(
            (pair.row["student.name"], pair.document.docid)
            for pair in execution.execution.pairs
        ),
        "inputs": inputs,
        "query": query,
        "execution": execution,
    }


def _identity_check(
    scenario: Scenario, run2: Dict[str, Any], store: FeedbackStore
) -> Dict[str, Any]:
    """DESIGN invariant 14: feedback recording never perturbs charges.

    The same already-blended inputs are executed twice on fresh ledgers —
    once recording into a throwaway copy of the store, once with no
    feedback at all.  The attempt trail, the ledger totals, and the
    result pairs must be bit-identical: feedback changes *plan choice*,
    never the accounting of the plan that runs.
    """
    throwaway = FeedbackStore.from_payload(store.to_payload())
    recorded: AdaptiveExecution = execute_adaptively(
        run2["query"], scenario.context(), run2["inputs"], feedback=throwaway
    )
    silent: AdaptiveExecution = execute_adaptively(
        run2["query"], scenario.context(), run2["inputs"], feedback=None
    )
    identical = (
        recorded.total_cost == silent.total_cost
        and [a.spent_cost for a in recorded.attempts]
        == [a.spent_cost for a in silent.attempts]
        and [a.method for a in recorded.attempts]
        == [a.method for a in silent.attempts]
        and sorted(
            (p.row["student.name"], p.document.docid)
            for p in recorded.execution.pairs
        )
        == sorted(
            (p.row["student.name"], p.document.docid)
            for p in silent.execution.pairs
        )
    )
    return {
        "identical": identical,
        "recorded_total": recorded.total_cost,
        "silent_total": silent.total_cost,
    }


def feedback_loop_report(
    seed: int = 7,
    store: Optional[FeedbackStore] = None,
    prior_weight: float = 0.5,
    safety_factor: float = 4.0,
) -> Dict[str, Any]:
    """Run the two-pass feedback workload; return everything measured.

    ``prior_weight`` deliberately trusts observations quickly (the demo
    records one abort's worth of probes); production callers keep the
    default :data:`~repro.core.feedback.DEFAULT_PRIOR_WEIGHT`.
    """
    scenario = build_default_scenario(seed=seed)
    registry = stale_statistics_registry()
    if store is None:
        store = FeedbackStore(prior_weight=prior_weight)

    run1 = _run_once(scenario, registry, store, safety_factor)
    run2 = _run_once(scenario, registry, store, safety_factor)
    identity = _identity_check(scenario, run2, store)

    report = {
        "run1": run1,
        "run2": run2,
        "flipped": run2["winner"] != run1["winner"],
        "cheaper": run2["total_cost"] < run1["total_cost"],
        "results_identical": run1["pairs"] == run2["pairs"],
        "identity": identity,
        "qerror": store.report(),
        "store": store,
    }
    return report


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`feedback_loop_report`."""
    from repro.bench.reporting import ascii_table

    lines: List[str] = []
    rows = []
    for label in ("run1", "run2"):
        run = report[label]
        rows.append(
            [
                label,
                run["first_choice"],
                run["winner"],
                round(run["total_cost"], 3),
                sum(1 for a in run["attempts"] if a["aborted"]),
                run["reoptimizations"],
            ]
        )
    lines.append(
        ascii_table(
            ["run", "planned", "executed", "ledger (s)", "aborts", "re-opts"],
            rows,
            title="Feedback loop: Q4 planned twice from stale statistics",
        )
    )
    lines.append(
        f"plan flipped: {report['flipped']}, run 2 cheaper: "
        f"{report['cheaper']}, results identical: "
        f"{report['results_identical']}"
    )
    identity = report["identity"]
    lines.append(
        "invariant 14 (recording never changes charges): "
        f"{'OK' if identity['identical'] else 'VIOLATED'} "
        f"({identity['recorded_total']:.3f}s with feedback, "
        f"{identity['silent_total']:.3f}s without)"
    )
    lines.append("")
    lines.append(report["qerror"].render(top=5))
    return "\n".join(lines)
