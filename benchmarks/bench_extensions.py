"""Benchmarks for the Section 8 extensions (implemented future work).

- **Batched invocations** (B+TS): invocation cost collapses by the batch
  factor while preserving per-tuple answer correspondence.
- **Published statistics**: exact predicate statistics read from the
  text system's published document frequencies cost zero searches, vs
  one metered search per sampled value.
- **Adaptive execution**: with deliberately wrong statistics the fetch
  guard aborts the mis-chosen plan and the fallback still answers the
  query.
"""

from __future__ import annotations


from repro.bench.reporting import ascii_table
from repro.core.adaptive import execute_adaptively
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import BatchedTupleSubstitution, TupleSubstitution
from repro.core.joinmethods.base import JoinContext
from repro.gateway.client import TextClient
from repro.gateway.sampling import (
    exact_predicate_statistics,
    sample_predicate_statistics,
)
from repro.textsys.server import BooleanTextServer


def test_batched_ts_vs_plain_ts(scenario, benchmark):
    """B+TS cuts Q3's invocation bill by ~the batch factor."""
    query = scenario.q3()
    plain_context = scenario.context()
    plain = TupleSubstitution().execute(query, plain_context)

    batching_server = BooleanTextServer(
        scenario.server.store, index=scenario.server.index, batch_limit=50
    )
    rows = []
    batched_costs = {}
    for limit in (5, 20, 50):
        context = JoinContext(
            scenario.catalog,
            TextClient(batching_server, constants=scenario.constants),
        )
        execution = BatchedTupleSubstitution(batch_limit=limit).execute(
            query, context
        )
        assert execution.result_keys() == plain.result_keys()
        batched_costs[limit] = execution.cost
        rows.append(
            [f"B+TS (batch={limit})", execution.cost.searches,
             round(execution.cost.total, 2)]
        )
    rows.insert(0, ["TS", plain.cost.searches, round(plain.cost.total, 2)])
    assert batched_costs[50].total < plain.cost.total / 5
    assert batched_costs[50].searches < batched_costs[5].searches

    benchmark.pedantic(
        lambda: BatchedTupleSubstitution().execute(
            query,
            JoinContext(
                scenario.catalog,
                TextClient(batching_server, constants=scenario.constants),
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        ascii_table(
            ["method", "invocations", "cost (s)"],
            rows,
            title="Extension: batched invocations (Section 8)",
        )
    )


def test_published_statistics_eliminate_probes(scenario, benchmark):
    """Published frequencies give the same stats with zero invocations."""
    table = scenario.catalog.table("project")
    values = table.column_values("member")

    sampling_client = scenario.client()
    sampled = sample_predicate_statistics(
        sampling_client, "project.member", "author", values, sample_size=30
    )
    sampled_invocations = sampling_client.ledger.searches

    searches_before = scenario.server.counters.searches
    published = benchmark(
        exact_predicate_statistics,
        scenario.client(),
        "project.member",
        "author",
        values,
    )
    assert sampled_invocations == 30
    # The directory path is exact over ALL values and sends no search.
    assert scenario.server.counters.searches == searches_before
    assert 0 <= published.selectivity <= 1
    print()
    print(
        ascii_table(
            ["path", "invocations", "s", "f"],
            [
                ["sampling (30 values)", sampled_invocations,
                 round(sampled.selectivity, 3), round(sampled.fanout, 3)],
                ["published catalogue", 0,
                 round(published.selectivity, 3), round(published.fanout, 3)],
            ],
            title="Extension: published statistics vs sampling",
        )
    )


def test_adaptive_execution_survives_bad_statistics(scenario, benchmark):
    """With truthful stats: no fallback.  With lying stats: the guard may
    abort the first choice, yet the query still completes correctly."""
    from repro.gateway.statistics import (
        PredicateStatistics,
        TextStatisticsRegistry,
    )

    query = scenario.q4()
    truthful_inputs = build_cost_inputs(query, scenario.context())
    context = scenario.context()
    honest = execute_adaptively(query, context, truthful_inputs)
    assert not honest.fell_back

    registry = TextStatisticsRegistry()
    registry.put(PredicateStatistics("student.advisor", "author", 0.01, 0.001))
    registry.put(PredicateStatistics("student.name", "author", 0.01, 0.001))
    lying_inputs = build_cost_inputs(
        query, scenario.context(), registry=registry
    )
    context = scenario.context()
    adaptive = benchmark.pedantic(
        lambda: execute_adaptively(
            query, scenario.context(), lying_inputs, safety_factor=0.001
        ),
        rounds=1,
        iterations=1,
    )
    reference = TupleSubstitution().execute(query, scenario.context())
    assert adaptive.execution.result_keys() == reference.result_keys()
    print()
    rows = [
        [attempt.method, "aborted" if attempt.aborted else "completed",
         round(attempt.predicted_cost, 2)]
        for attempt in adaptive.attempts
    ]
    print(
        ascii_table(
            ["attempt", "outcome", "predicted (s)"],
            rows,
            title="Extension: adaptive execution under bad statistics",
        )
    )
