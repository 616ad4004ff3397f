"""End-to-end tests of the multi-tenant query service (the tentpole)."""

from __future__ import annotations

import pytest

from repro.errors import (
    AdmissionRejected,
    BudgetExceededError,
    QuotaExceededError,
    ServingError,
)
from repro.gateway.cache import GatewayCache
from repro.serving import QueryService, TenantSpec
from repro.workload.scenarios import build_default_scenario


@pytest.fixture(scope="module")
def serving_scenario():
    """A smaller corpus than the Table-2 default: these tests run many
    queries and only care about serving behaviour, not planted regimes."""
    return build_default_scenario(seed=7, document_count=800)


def run_mixed_workload(service, submissions):
    tickets = [
        service.submit(tenant, query) for tenant, query in submissions
    ]
    return [ticket.result(timeout=60) for ticket in tickets]


def test_mixed_tenants_complete_and_ledgers_separate(serving_scenario):
    specs = [TenantSpec("alice"), TenantSpec("bob")]
    with QueryService(serving_scenario, specs, workers=3, capacity=16) as service:
        executions = run_mixed_workload(
            service,
            [("alice", "q1"), ("bob", "q2"), ("alice", "q4"), ("bob", "q2")],
        )
    assert all(execution.cost.total > 0 for execution in executions)
    totals = service.ledger_totals()
    assert totals["alice"] == pytest.approx(
        executions[0].cost.total + executions[2].cost.total
    )
    assert totals["bob"] == pytest.approx(
        executions[1].cost.total + executions[3].cost.total
    )


def test_concurrent_totals_match_serial_run_bit_identically(serving_scenario):
    """DESIGN invariant 12: per-tenant sums == a serial run, exactly.

    Cache off (hit patterns vary with interleaving); the in-process
    backend is deterministic, so each tenant's queries charge the same
    integer counts no matter how workers interleave.
    """
    submissions = [
        ("alice", "q1"),
        ("bob", "q2"),
        ("alice", "q4"),
        ("carol", "q2"),
        ("bob", "q4"),
        ("carol", "q1"),
    ]
    specs = [TenantSpec("alice"), TenantSpec("bob"), TenantSpec("carol")]
    with QueryService(serving_scenario, specs, workers=4, capacity=16) as service:
        run_mixed_workload(service, submissions)
    concurrent_totals = service.ledger_totals()

    # The serial oracle mirrors the service's wiring exactly: one
    # cumulative ledger per tenant, a fresh client per query.
    from repro.core.joinmethods import JoinContext, TupleSubstitution
    from repro.gateway.client import TextClient
    from repro.gateway.costs import CostLedger

    serial_ledgers = {}
    for tenant, query_id in submissions:
        ledger = serial_ledgers.setdefault(
            tenant, CostLedger(constants=serving_scenario.constants)
        )
        client = TextClient(serving_scenario.server, ledger=ledger)
        context = JoinContext(serving_scenario.catalog, client)
        TupleSubstitution().execute(serving_scenario.query(query_id), context)

    # Bitwise equality: the counts are integers, so the concurrent run's
    # cumulative per-tenant totals equal the serial run's exactly.
    for tenant, ledger in serial_ledgers.items():
        assert concurrent_totals[tenant] == ledger.total
        assert service.tenant(tenant).ledger.report() == ledger.report()


def test_quota_enforced_at_admission(serving_scenario):
    specs = [TenantSpec("metered", query_quota=2)]
    with QueryService(serving_scenario, specs, workers=2) as service:
        first = service.submit("metered", "q2")
        second = service.submit("metered", "q2")
        with pytest.raises(QuotaExceededError):
            service.submit("metered", "q2")
        first.result(timeout=60)
        second.result(timeout=60)
    report = service.tenant("metered").report()
    assert report["admitted"] == 2
    assert report["completed"] == 2
    assert report["rejected"] == 1


def test_budget_aborts_inflight_query_and_blocks_later_ones(serving_scenario):
    """The crossing charge stays; the query dies; later admissions refuse."""
    specs = [TenantSpec("broke", budget_seconds=1.0)]  # < one invocation
    with QueryService(serving_scenario, specs, workers=1) as service:
        ticket = service.submit("broke", "q2")
        with pytest.raises(BudgetExceededError):
            ticket.result(timeout=60)
        with pytest.raises(BudgetExceededError):
            service.submit("broke", "q2")
    state = service.tenant("broke")
    assert state.ledger.exhausted
    assert state.ledger.searches >= 1  # the crossing charge was kept
    assert state.failed == 1


def test_budget_crossed_in_the_long_forms_charges_every_one_served(
    serving_scenario,
):
    """Q1's long forms travel in one ``retrieve_many``.  A budget that
    runs out at the first of them still charges every document the
    server handed back before the query dies."""
    with QueryService(serving_scenario, [TenantSpec("probe")], workers=1) as service:
        service.submit("probe", "q1").result(timeout=60)
    probe = service.tenant("probe").ledger
    long_forms = probe.long_documents
    assert long_forms >= 2
    c_l = serving_scenario.constants.long_form
    budget = probe.total - long_forms * c_l + c_l / 2
    counters = serving_scenario.server.counters
    before = counters.snapshot()
    specs = [TenantSpec("tight", budget_seconds=budget)]
    with QueryService(serving_scenario, specs, workers=1) as service:
        with pytest.raises(BudgetExceededError):
            service.submit("tight", "q1").result(timeout=60)
    ledger = service.tenant("tight").ledger
    assert (counters - before).long_documents == long_forms
    assert ledger.long_documents == long_forms
    assert ledger.report() == probe.report()


def test_backpressure_rejects_with_retry_after(serving_scenario):
    """With workers busy and the queue full, submits bounce immediately."""
    specs = [TenantSpec("flood")]
    service = QueryService(serving_scenario, specs, workers=1, capacity=2)
    # NOT started: nothing drains, so the queue fills deterministically.
    service.submit("flood", "q2")
    service.submit("flood", "q2")
    with pytest.raises(AdmissionRejected) as rejection:
        service.submit("flood", "q2")
    assert rejection.value.retry_after > 0
    # The bounced submission consumed no quota slot.
    assert service.tenant("flood").admitted == 2
    assert service.tenant("flood").rejected == 1
    # Now serve the backlog and shut down cleanly.
    service.start()
    service.stop(drain=True)
    assert service.tenant("flood").completed == 2


def test_stop_without_drain_fails_pending_tickets(serving_scenario):
    specs = [TenantSpec("t")]
    service = QueryService(serving_scenario, specs, workers=1, capacity=8)
    tickets = [service.submit("t", "q2") for _ in range(3)]
    service.start()
    service.stop(drain=False)
    outcomes = []
    for ticket in tickets:
        try:
            ticket.result(timeout=10)
            outcomes.append("done")
        except ServingError:
            outcomes.append("stopped")
    # Everything resolved one way or the other — nobody hangs.
    assert len(outcomes) == 3
    assert "stopped" in outcomes or outcomes == ["done"] * 3


def test_metrics_snapshot_shape(serving_scenario):
    cache = GatewayCache()
    specs = [TenantSpec("alice"), TenantSpec("bob")]
    with QueryService(
        serving_scenario, specs, workers=2, capacity=8, cache=cache
    ) as service:
        run_mixed_workload(
            service, [("alice", "q2"), ("bob", "q2"), ("alice", "q2")]
        )
        snapshot = service.metrics_snapshot()
    assert snapshot["submitted"] == 3
    assert snapshot["completed"] == 3
    assert snapshot["failed"] == 0
    assert snapshot["qps"] > 0
    assert snapshot["latency_p99"] >= snapshot["latency_p50"] > 0
    assert 0.0 <= snapshot["cache_hit_rate"] <= 1.0
    assert snapshot["foreign_calls"] > 0
    assert snapshot["breaker_states"] == []  # in-process backend
    # The shared cache actually engaged across tenants: the repeated q2
    # searches hit after the first run primed it.
    assert snapshot["cache_hit_rate"] > 0


def test_unknown_tenant_rejected(serving_scenario):
    with QueryService(serving_scenario, [TenantSpec("a")], workers=1) as service:
        with pytest.raises(ServingError):
            service.submit("nobody", "q1")


def test_weighted_fairness_under_contention(serving_scenario):
    """With one worker and a full queue, dispatch order follows weights."""
    specs = [TenantSpec("heavy", weight=4.0), TenantSpec("light", weight=1.0)]
    service = QueryService(serving_scenario, specs, workers=1, capacity=40)
    tickets = {"heavy": [], "light": []}
    for _ in range(10):
        tickets["heavy"].append(service.submit("heavy", "q2"))
        tickets["light"].append(service.submit("light", "q2"))
    service.start()
    # When the 2nd light query finishes, at least 5 heavy ones must have
    # (the 4:1 stride puts ~8 heavy dispatches in the first 10).
    tickets["light"][1].result(timeout=120)
    heavy_done = sum(1 for t in tickets["heavy"] if t.latency is not None)
    assert heavy_done >= 5
    service.stop(drain=True)


def test_feedback_planning_records_method_runs(serving_scenario):
    """With a FeedbackStore wired in, methodless tickets are planned
    per query with feedback-blended statistics, every completed plan
    records its predicted-vs-measured cost, and the charges still land
    on the tenant's own ledger (DESIGN invariant 14: the store only
    reads the spend afterwards)."""
    from repro.core.feedback import FeedbackStore
    from repro.gateway.statistics import TextStatisticsRegistry

    store = FeedbackStore()
    specs = [TenantSpec("alice")]
    with QueryService(
        serving_scenario,
        specs,
        workers=2,
        feedback=store,
        statistics=TextStatisticsRegistry(),
    ) as service:
        executions = run_mixed_workload(
            service, [("alice", "q1"), ("alice", "q1"), ("alice", "q4")]
        )
    assert all(execution.cost.total > 0 for execution in executions)
    # Every planned query recorded one method run; repeated q1 runs
    # accumulate under the same (corpus, query, method) entry.
    runs = [record for record in store.report().records if record.kind == "method"]
    assert len(runs) == 3
    assert all(record.unit == "seconds" for record in runs)
    # The spend the store observed is exactly what the tenant was
    # charged - recording reads the ledger, it never writes it.
    observed = sum(record.actual for record in runs)
    assert service.ledger_totals()["alice"] == pytest.approx(observed)


def test_feedback_planning_matches_serial_charges(serving_scenario):
    """Feedback-driven planning keeps the serial-identity contract: a
    plain serial execution of the same chosen methods costs exactly
    what the served run charged."""
    from repro.core.feedback import FeedbackStore
    from repro.core.inputs import build_cost_inputs
    from repro.core.optimizer.single_join import choose_join_method
    from repro.gateway.statistics import TextStatisticsRegistry

    store = FeedbackStore()
    registry = TextStatisticsRegistry()
    with QueryService(
        serving_scenario,
        [TenantSpec("alice")],
        workers=1,
        feedback=store,
        statistics=registry,
    ) as service:
        service.submit("alice", "q4").result(timeout=60)
    served_total = service.ledger_totals()["alice"]

    # Serial replay: same statistics registry (already primed), same
    # feedback-blended choice, fresh context.
    query = serving_scenario.q4()
    context = serving_scenario.context()
    inputs = build_cost_inputs(
        query, context, registry=registry, feedback=store
    )
    choice = choose_join_method(query, inputs)
    execution = choice.method.execute(query, context)
    # The served run paid for statistics gathering too; replaying with
    # the primed registry skips it, so compare the execution itself
    # against the store's recorded actual.
    method_runs = [r for r in store.report().records if r.kind == "method"]
    assert len(method_runs) == 1
    assert execution.cost.total == method_runs[0].actual
    assert served_total >= execution.cost.total


def test_feedback_planning_runs_under_the_fetch_guard(serving_scenario):
    """Planned serving runs the Section 5 fetch guard: statistics that
    under-state Q4's probe fanout make P+RTP the plan, its cap trips,
    the abort is recorded, and the re-optimized plan answers with TS's
    pairs.  The tenant pays exactly what a serial adaptive run pays,
    the aborted attempt included."""
    from repro.core.adaptive import execute_adaptively
    from repro.core.feedback import FeedbackStore
    from repro.core.inputs import build_cost_inputs
    from repro.core.joinmethods import TupleSubstitution
    from repro.gateway.statistics import PredicateStatistics, TextStatisticsRegistry

    def understated():
        registry = TextStatisticsRegistry()
        registry.put(PredicateStatistics("student.advisor", "author", 0.01, 0.001))
        registry.put(PredicateStatistics("student.name", "author", 0.9, 2.0e5))
        return registry

    store = FeedbackStore()
    with QueryService(
        serving_scenario,
        [TenantSpec("alice")],
        workers=1,
        feedback=store,
        statistics=understated(),
    ) as service:
        execution = service.submit("alice", "q4").result(timeout=60)

    query = serving_scenario.q4()
    expected = TupleSubstitution().execute(query, serving_scenario.context())
    assert execution.result_keys() == expected.result_keys()
    aborts = [record for record in store.report().records if record.kind == "abort"]
    assert len(aborts) == 1
    assert aborts[0].label.startswith("guard:P(advisor)")

    context = serving_scenario.context()
    inputs = build_cost_inputs(
        query, context, registry=understated(), feedback=FeedbackStore()
    )
    replay = execute_adaptively(query, context, inputs, feedback=FeedbackStore())
    assert replay.attempts[0].aborted
    assert service.ledger_totals()["alice"] == replay.total_cost
