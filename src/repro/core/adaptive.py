"""Runtime re-optimization (the [CDY] guard, sketched at the end of
Section 5, implemented).

"Although probe, followed by relational text processing is an attractive
join method, it suffers from the danger that if the selectivity and
fanout estimates are unreliable, then too many documents are fetched.
We rely on runtime optimization techniques to address such difficulties."

:func:`execute_adaptively` runs the optimizer's ranked method choices in
order.  Fetch-bounded methods (P+RTP) are armed with a cap derived from
their own cost prediction (``cap = safety_factor * predicted fetch``).
When a method aborts because reality blew past its estimate, the guard
does not merely fall back — it *re-optimizes*: the aborted attempt's
observed counters (probes sent, successes, documents fetched) become
fresh :class:`~repro.gateway.statistics.PredicateStatistics`, the method
ranking is recomputed with them injected, and execution continues with
the best not-yet-attempted method under the corrected ranking.  A wrong
probe-column choice flips (the corrected fanout re-ranks the probe
sets), and so does wrong SJ batching (distinct-document expectations are
re-derived from the corrected fanouts).

Cost accounting is pinned by regression tests: every attempt's
already-spent ledger charges appear exactly once in ``total_cost`` —
never dropped, never double-counted — whether or not a warm
:class:`~repro.gateway.cache.GatewayCache` answers the fallback's
re-fetches, and when *every* method aborts the raised
:class:`OptimizationError` carries the spent cost and attempt trail
instead of dropping them.

With a :class:`~repro.core.feedback.FeedbackStore` attached, each
abort's true cause is recorded as a q-error event, the observed
statistics persist for future planning, and completed methods record
predicted-vs-measured cost.  Feedback is read-only with respect to the
ledger: it changes plan choice, never the accounting of the plan that
runs (DESIGN invariant 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.costmodel import QueryCostInputs
from repro.core.feedback import FeedbackStore, corpus_fingerprint, query_key
from repro.core.joinmethods import JoinContext, MethodExecution, ProbeRtp
from repro.core.optimizer.single_join import MethodChoice, enumerate_method_choices
from repro.core.query import TextJoinQuery
from repro.errors import JoinMethodError, OptimizationError, StatisticsError
from repro.gateway.sampling import observed_predicate_statistics

__all__ = ["AdaptiveAttempt", "AdaptiveExecution", "execute_adaptively"]


@dataclass(frozen=True)
class AdaptiveAttempt:
    """One attempted method: either completed or aborted by its guard."""

    method: str
    predicted_cost: float
    aborted: bool
    reason: Optional[str] = None
    #: Ledger charges this attempt alone spent (simulated seconds).  An
    #: abort's sunk cost stays visible instead of vanishing into the sum.
    spent_cost: float = 0.0


@dataclass
class AdaptiveExecution:
    """The final execution plus the attempt trail and total cost."""

    execution: MethodExecution
    attempts: List[AdaptiveAttempt]
    total_cost: float
    #: How many times the ranking was recomputed with observed statistics.
    reoptimizations: int = 0

    @property
    def fell_back(self) -> bool:
        return len(self.attempts) > 1


def _predicted_fetch(method: ProbeRtp, inputs: QueryCostInputs) -> float:
    """The cost model's document-fetch prediction for a P+RTP method.

    Degenerate inputs (empty relations, zero-distinct or all-NULL probe
    columns, an empty corpus) must yield a finite, non-negative number
    or a typed :class:`OptimizationError` — never NaN, a negative cap,
    or a bare ZeroDivisionError.
    """
    try:
        fetch = inputs.total_documents(
            inputs.distinct(method.probe_columns), method.probe_columns
        )
    except StatisticsError as error:
        raise OptimizationError(
            f"cannot arm {method.name}: {error}"
        ) from error
    if not math.isfinite(fetch) or fetch < 0:
        raise OptimizationError(
            f"cannot arm {method.name}: predicted fetch {fetch!r} is not a "
            "finite non-negative number"
        )
    return fetch


def _armed(choice: MethodChoice, inputs: QueryCostInputs, safety_factor: float):
    """Arm fetch-bounded methods with a prediction-derived cap."""
    method = choice.method
    if isinstance(method, ProbeRtp):
        predicted = _predicted_fetch(method, inputs)
        cap = max(1, math.ceil(safety_factor * max(predicted, 1.0)))
        return ProbeRtp(method.probe_columns, fetch_cap=cap)
    return method


def _inputs_with_observation(
    inputs: QueryCostInputs, observed: Dict[str, object]
) -> QueryCostInputs:
    """Cost inputs with an aborted attempt's measurements injected.

    The abort's counters give the probe columns' *joint* behaviour:
    ``successes / probes`` matched, ``fetched / probes`` documents per
    probe (a lower bound — the guard stopped counting at the cap, which
    only understates how wrong the prior was).  Each probed column's
    statistics are replaced with that joint observation; under the
    paper's validated 1-correlated model the joint statistic is the
    minimum, so assigning the joint to every probed column reproduces
    exactly what the guard measured.
    """
    columns = tuple(observed.get("probe_columns", ()))
    probes = int(observed.get("probes", 0))
    if not columns or probes < 1:
        return inputs
    successes = int(observed.get("successes", 0))
    fetched = float(observed.get("fetched", 0.0))
    fields = observed.get("fields", {})
    stats = dict(inputs.predicate_stats)
    for column in columns:
        prior = stats.get(column)
        if prior is None:
            continue
        stats[column] = observed_predicate_statistics(
            column,
            fields.get(column, prior.field),
            probes,
            successes,
            fetched,
        )
    return replace(inputs, predicate_stats=stats)


def _record_abort(
    feedback: Optional[FeedbackStore],
    fingerprint: str,
    method_name: str,
    predicted_fetch: Optional[float],
    observed: Optional[Dict[str, object]],
    reason: str,
) -> None:
    if feedback is None or observed is None:
        return
    feedback.record_event(
        kind="abort",
        label=f"guard:{method_name}",
        estimated=float(predicted_fetch or 0.0),
        actual=float(observed.get("fetched", 0.0)),
        unit="documents",
        detail=reason,
    )
    columns = tuple(observed.get("probe_columns", ()))
    fields = observed.get("fields", {})
    probes = int(observed.get("probes", 0))
    for column in columns:
        field_name = fields.get(column)
        if field_name is None:
            continue
        feedback.observe_predicate(
            fingerprint,
            column,
            field_name,
            searches=probes,
            matched=int(observed.get("successes", 0)),
            documents=float(observed.get("fetched", 0.0)),
        )


def execute_adaptively(
    query: TextJoinQuery,
    context: JoinContext,
    inputs: QueryCostInputs,
    safety_factor: float = 4.0,
    feedback: Optional[FeedbackStore] = None,
    reoptimize: bool = True,
    max_reoptimizations: int = 2,
) -> AdaptiveExecution:
    """Run the ranked choices with runtime guards, re-ranking on abort.

    ``safety_factor`` scales each guarded method's predicted document
    fetch into its runtime cap; 4x tolerates ordinary estimation noise
    while still catching order-of-magnitude misestimates.  With
    ``reoptimize`` (the default) an abort whose guard observed real
    statistics triggers re-enumeration of the method ranking with those
    statistics injected (at most ``max_reoptimizations`` times); already
    attempted methods are never retried.  ``feedback``, when given,
    records abort causes, observed predicate statistics, and completed
    methods' predicted-vs-measured cost — without touching the ledger.
    """
    if safety_factor <= 0:
        raise OptimizationError("safety_factor must be positive")
    choices = enumerate_method_choices(query, inputs)
    if not choices:
        raise OptimizationError(f"no applicable method for {query!r}")

    fingerprint = corpus_fingerprint(context.client)
    attempts: List[AdaptiveAttempt] = []
    attempted_names = set()
    reoptimizations = 0
    current_inputs = inputs
    ledger = context.client.ledger
    before = ledger.snapshot()

    queue = list(choices)
    while queue:
        choice = queue.pop(0)
        if choice.name in attempted_names:
            continue
        attempted_names.add(choice.name)
        method = _armed(choice, current_inputs, safety_factor)
        predicted_fetch = (
            _predicted_fetch(choice.method, current_inputs)
            if isinstance(choice.method, ProbeRtp)
            else None
        )
        attempt_before = ledger.snapshot()
        try:
            execution = method.execute(query, context)
        except JoinMethodError as error:
            spent = ledger.diff(attempt_before).total
            attempts.append(
                AdaptiveAttempt(
                    method=method.name,
                    predicted_cost=choice.estimate.total,
                    aborted=True,
                    reason=str(error),
                    spent_cost=spent,
                )
            )
            observed = getattr(error, "observed", None)
            _record_abort(
                feedback,
                fingerprint,
                method.name,
                predicted_fetch,
                observed,
                str(error),
            )
            if (
                observed
                and reoptimize
                and reoptimizations < max_reoptimizations
            ):
                current_inputs = _inputs_with_observation(
                    current_inputs, observed
                )
                reoptimizations += 1
                queue = [
                    fresh
                    for fresh in enumerate_method_choices(query, current_inputs)
                    if fresh.name not in attempted_names
                ]
            continue
        spent = ledger.diff(attempt_before).total
        attempts.append(
            AdaptiveAttempt(
                method=method.name,
                predicted_cost=choice.estimate.total,
                aborted=False,
                spent_cost=spent,
            )
        )
        if feedback is not None:
            feedback.observe_method(
                fingerprint,
                query_key(query),
                method.name,
                estimated_cost=choice.estimate.total,
                actual_cost=spent,
            )
        total = ledger.diff(before).total
        return AdaptiveExecution(
            execution=execution,
            attempts=attempts,
            total_cost=total,
            reoptimizations=reoptimizations,
        )

    spent_total = ledger.diff(before).total
    error = OptimizationError(
        f"every applicable method aborted after spending {spent_total:.3f}s; "
        "raise safety_factor or fix the statistics"
    )
    # The sunk charges and the attempt trail stay visible to the caller
    # (they are on the ledger regardless — dropping them from the error
    # was the accounting bug this module's tests pin).
    error.attempts = attempts
    error.spent_cost = spent_total
    raise error
