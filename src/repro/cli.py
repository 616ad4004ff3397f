"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro table2          # E3: Table 2
    python -m repro ranking         # E7: predicted vs measured rankings
    python -m repro figures         # E4/E5/E6: the cost-formula sweeps
    python -m repro multijoin       # E8: PrL vs left-deep
    python -m repro enumeration     # E9: optimizer effort vs n
    python -m repro trace           # gateway cache + foreign-call trace
    python -m repro multibackend    # Boolean + vector sources, one optimizer
    python -m repro serve           # concurrent multi-tenant serving demo
    python -m repro serve --vector  # ...with a second, ranked backend
    python -m repro index build --synthetic 100000 --out corpus.ridx
    python -m repro index stats corpus.ridx
    python -m repro index query corpus.ridx --expr "TI='database'"
    python -m repro qerror demo --store feedback.json   # the estimator loop
    python -m repro qerror report --store feedback.json # q-error summary
    python -m repro all             # everything above (except serve/index)
    python -m repro all --seed 11   # a different synthetic world
    python -m repro table2 --trace  # append the foreign-call trace
    python -m repro table2 --remote flaky   # run over a faulty transport
    python -m repro serve --shards 4 --pool 4   # serve over shards
    python -m repro table2 --feedback feedback.json  # record q-errors
    python -m repro serve --feedback feedback.json   # feedback-driven plans
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import (
    cache_report,
    enumeration_report,
    fig1a_series,
    fig1b_series,
    fig2_grid,
    multijoin_report,
    ranking_report,
    table2_rows,
)
from repro.bench.reporting import ascii_table
from repro.gateway.cache import GatewayCache
from repro.gateway.tracing import CallTracer, format_trace
from repro.remote import (
    FAULT_PROFILES,
    CircuitBreaker,
    RemoteTextTransport,
    RetryPolicy,
    ShardedTextTransport,
    build_sharded_transport,
)
from repro.workload import build_default_scenario
from repro.workload.scenarios import build_prl_scenario

__all__ = ["main"]


def _print_table2(scenario, feedback=None) -> None:
    rows = []
    by_query = table2_rows(scenario)
    if feedback is not None:
        # Every (predicted, measured) pair the experiment produced is
        # q-error evidence; recording it is read-only for the ledger.
        from repro.core.feedback import EstimateRecord

        for query_id, runs in by_query.items():
            for run in runs:
                if run.predicted_cost is not None:
                    feedback.record(
                        EstimateRecord(
                            label=f"{query_id}:{run.method}",
                            kind="method",
                            estimated=run.predicted_cost,
                            actual=run.measured_cost,
                            unit="seconds",
                        )
                    )
    for query_id, runs in by_query.items():
        for run in runs:
            rows.append(
                [
                    query_id,
                    run.method,
                    round(run.measured_cost, 2),
                    run.predicted_cost and round(run.predicted_cost, 2),
                    run.searches,
                    run.results,
                ]
            )
    print(
        ascii_table(
            ["query", "method", "measured (s)", "predicted (s)",
             "searches", "results"],
            rows,
            title="E3: Table 2 — join method costs on Q1-Q4",
        )
    )


def _print_ranking(scenario) -> None:
    rows = [
        [
            entry["query"],
            " < ".join(entry["measured_order"]),
            entry["winner_match"],
            round(entry["kendall_tau"], 2),
        ]
        for entry in ranking_report(scenario)
    ]
    print(
        ascii_table(
            ["query", "measured order", "winner predicted", "tau"],
            rows,
            title="E7: does the cost model predict the ranking?",
        )
    )


def _print_figures() -> None:
    s1_values = [round(i / 10, 2) for i in range(11)]
    series = fig1a_series(s1_values)
    print(
        ascii_table(
            ["s1"] + list(series),
            [
                [s1] + [round(series[name][index], 1) for name in series]
                for index, s1 in enumerate(s1_values)
            ],
            title="E4: Figure 1(A) — cost vs s1 (Q3 shape)",
        )
    )
    print()
    ratios = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    series = fig1b_series(ratios)
    print(
        ascii_table(
            ["N1/N"] + list(series),
            [
                [ratio] + [round(series[name][index], 2) for name in series]
                for index, ratio in enumerate(ratios)
            ],
            title="E5: Figure 1(B) — cost vs N1/N (Q4 shape, s1=1)",
        )
    )
    print()
    print("E6: Figure 2 — winner per (s1 across, N1/N down); P = P+TS")
    ratio_values = [0.01] + [round(i / 10, 2) for i in range(1, 11)]
    grid = fig2_grid(s1_values, ratio_values)
    print("N1/N \\ s1 " + " ".join(f"{s1:>4}" for s1 in s1_values))
    for ratio, row in zip(ratio_values, grid):
        cells = " ".join(f"{'P' if w == 'P+TS' else 'T':>4}" for w in row)
        print(f"{ratio:>9} {cells}")


def _print_multijoin(scenario) -> None:
    for title, (target, query, spaces) in {
        "E8a: Q5 across execution spaces": (
            scenario, scenario.q5(), ("traditional", "prl", "extended")
        ),
        "E8b: PrL showcase (probe node strictly wins)": (
            *build_prl_scenario(), ("traditional", "prl")
        ),
    }.items():
        report = multijoin_report(target, query, spaces=spaces)
        rows = [
            [
                entry["space"],
                round(entry["estimated_cost"], 1),
                round(entry["measured_cost"], 1),
                entry["rows"],
            ]
            for entry in report
        ]
        print(ascii_table(["space", "estimated", "measured", "rows"], rows, title=title))
        for entry in report:
            print(f"\n[{entry['space']}]")
            print(entry["plan"])
        print()


def _print_trace(scenario) -> None:
    report = cache_report(scenario)
    rows = [
        [
            entry["workload"],
            entry["query"],
            entry["method"],
            round(entry["first_cost"], 2),
            round(entry["second_cost"], 2),
            f"{entry['reduction']:.0%}",
            entry["cache_hits"],
            entry["cache_misses"],
            round(entry["seconds_saved"], 2),
        ]
        for entry in report
    ]
    print(
        ascii_table(
            ["workload", "query", "method", "1st run (s)", "2nd run (s)",
             "reduction", "hits", "misses", "saved (s)"],
            rows,
            title="Gateway cache: cost of re-executing each workload",
        )
    )
    for entry in report:
        trace = entry["trace"]
        by_phase = ", ".join(
            f"{phase}={info['calls']}"
            for phase, info in trace["by_phase"].items()
        )
        print(
            f"\n[{entry['workload']} / {entry['query']}] "
            f"{trace['spans']} foreign calls, hit rate "
            f"{trace['hit_rate']:.0%}, phases: {by_phase}"
        )


def _print_transport_report(transport) -> None:
    report = transport.report()
    channel = report.pop("channel")
    transitions = report.pop("breaker_transitions")
    rows = [[key, value] for key, value in report.items()]
    rows += [[f"channel.{key}", value] for key, value in channel.items()]
    print(
        ascii_table(
            ["transport metric", "value"],
            rows,
            title=f"Remote transport ({transport.profile.name} profile)",
        )
    )
    if transitions:
        print("breaker transitions: " + ", ".join(transitions))


def _print_sharded_report(transport) -> None:
    report = transport.report()
    per_shard = report.pop("per_shard")
    totals = report.pop("totals")
    rows = [[key, value] for key, value in report.items()]
    rows += [[f"totals.{key}", round(value, 6)] for key, value in totals.items()]
    profile = getattr(transport.profile, "name", "loopback")
    print(
        ascii_table(
            ["sharding metric", "value"],
            rows,
            title=f"Sharded text service ({profile} profile)",
        )
    )
    print(
        ascii_table(
            ["shard", "documents", "failovers", "breaker", "frames", "retried s"],
            [
                [
                    shard["shard"],
                    shard["documents"],
                    shard["failovers"],
                    shard["breaker_state"],
                    shard["frames_sent"],
                    shard["seconds_retried"],
                ]
                for shard in per_shard
            ],
        )
    )


def _print_multibackend(seed: int) -> None:
    """The heterogeneous tentpole: one query, two backends, one optimizer."""
    from repro.bench.multibackend import (
        build_multibackend_scenario,
        multibackend_report,
    )

    scenario = build_multibackend_scenario(seed=seed)
    report = multibackend_report(scenario)
    print(report["explain"])
    print()
    print(report["attribution"])
    flipped = multibackend_report(scenario, vector_column="student.name")
    print(
        f"\n{len(report['execution'].rows)} ranked result rows; sweeping the "
        f"vector column to 14 distinct bindings flips the ranked strategy "
        f"to {flipped['plan'].vector_choice.name}"
    )


def _print_serving(
    scenario, feedback=None, vector_server=None, share_window=None
) -> None:
    """A mixed-tenant serving session over whatever backend is wired in."""
    import time as _time

    from repro.errors import AdmissionRejected, BudgetExceededError
    from repro.gateway.statistics import TextStatisticsRegistry
    from repro.serving import QueryService, TenantSpec

    tenants = [
        TenantSpec("gold", weight=4.0),
        TenantSpec("silver", weight=2.0),
        TenantSpec("bronze", weight=1.0),
        TenantSpec("metered", weight=1.0, budget_seconds=60.0, query_quota=4),
    ]
    submissions = []
    for round_index in range(3):
        query_id = "q2" if round_index % 2 == 0 else "q4"
        for spec in tenants:
            submissions.append((spec.name, query_id))
    if vector_server is not None:
        from repro.textsys.vector import VectorQuery

        # Every tenant mixes one ranked search into its load; charges
        # land on the per-tenant *vector* ledgers (invariant 15).
        for spec in tenants:
            submissions.append(
                (
                    spec.name,
                    VectorQuery(
                        vector_server.field, ("belief", "update"), top_k=5
                    ),
                )
            )

    service = QueryService(
        scenario,
        tenants,
        workers=4,
        capacity=8,
        cache=scenario.shared_cache,
        feedback=feedback,
        statistics=TextStatisticsRegistry() if feedback is not None else None,
        vector_backend=vector_server,
        share_window=share_window,
    )
    refused = 0
    with service:
        tickets = []
        for tenant, query_id in submissions:
            while True:
                try:
                    tickets.append(service.submit(tenant, query_id))
                    break
                except AdmissionRejected as rejected:
                    _time.sleep(rejected.retry_after)
                except BudgetExceededError:
                    refused += 1
                    break
        for ticket in tickets:
            try:
                ticket.result(timeout=300)
            except BudgetExceededError:
                pass
        snapshot = service.metrics_snapshot()

    print(
        ascii_table(
            ["tenant", "weight", "budget (s)", "admitted", "done", "failed",
             "refused", "ledger (s)"],
            [
                [
                    entry["tenant"],
                    entry["weight"],
                    entry["budget_seconds"] or "-",
                    entry["admitted"],
                    entry["completed"],
                    entry["failed"],
                    entry["rejected"],
                    round(entry["ledger_total"], 2),
                ]
                for entry in service.tenant_reports()
            ],
            title="Concurrent serving: per-tenant accounting",
        )
    )
    rows = [
        ["completed / submitted", f"{snapshot['completed']}/{snapshot['submitted']}"],
        ["throughput (QPS)", round(snapshot["qps"], 1)],
        ["latency p50 / p99 (ms)",
         f"{snapshot['latency_p50'] * 1000:.0f} / {snapshot['latency_p99'] * 1000:.0f}"],
        ["foreign calls", snapshot.get("foreign_calls", 0)],
        ["cache hit rate", f"{snapshot.get('cache_hit_rate', 0.0):.0%}"],
        ["breaker states", ", ".join(snapshot["breaker_states"]) or "-"],
    ]
    sharing = snapshot.get("sharing")
    if sharing is not None:
        rows.append(
            ["shared searches (joins)", sharing["shared_searches"]]
        )
        rows.append(
            ["seconds shared (side channel)",
             round(sharing["seconds_shared"], 2)],
        )
    print(ascii_table(["serving metric", "value"], rows))
    if vector_server is not None:
        totals = service.vector_ledger_totals()
        print(
            ascii_table(
                ["tenant", "vector ledger (s)", "vector searches"],
                [
                    [name, round(total, 2),
                     service.tenant(name).vector_ledger.searches]
                    for name, total in totals.items()
                ],
                title="Vector-backend attribution (per-tenant, invariant 15)",
            )
        )
    if feedback is not None:
        summary = feedback.summary()
        print(
            f"feedback: {summary['records']} estimate records, "
            f"{summary['predicates']} predicate observations recorded"
        )


def _print_enumeration() -> None:
    rows = [
        [
            entry["relations"],
            entry["space"],
            entry["join_tasks"],
            entry["plans_considered"],
            round(entry["seconds"] * 1000, 1),
        ]
        for entry in enumeration_report([1, 2, 3, 4, 5])
    ]
    print(
        ascii_table(
            ["n relations", "space", "join tasks", "plans", "ms"],
            rows,
            title="E9: enumeration effort vs number of relations",
        )
    )


def _index_main(argv: List[str]) -> int:
    """The ``repro index`` tool: build / inspect / query disk indexes."""
    import time

    from repro.textsys.diskindex import (
        DEFAULT_BLOCK_SIZE,
        DiskIndexBuilder,
        DiskInvertedIndex,
    )
    from repro.textsys.engine import evaluate
    from repro.textsys.parser import parse_search
    from repro.textsys.persistence import load_store
    from repro.workload.corpus import iter_synthetic_documents

    parser = argparse.ArgumentParser(
        prog="repro index",
        description="Build and serve disk-backed compressed inverted "
        "indexes (delta + group-varint blocks, skip entries, bounded "
        "block cache).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build an index file")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        help="stream N synthetic documents (never materialized in RAM)",
    )
    source.add_argument(
        "--store",
        metavar="PATH",
        help="index a saved document store (.jsonl or .jsonl.gz)",
    )
    build.add_argument("--out", required=True, help="index file to write")
    build.add_argument("--seed", type=int, default=7)
    build.add_argument(
        "--fields",
        default="title,abstract",
        help="synthetic fields (comma-separated; default title,abstract)",
    )
    build.add_argument("--vocabulary", type=int, default=1500)
    build.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    build.add_argument(
        "--memory-budget-mb",
        type=int,
        default=256,
        help="posting-buffer budget before spilling a segment (default 256)",
    )

    stats = commands.add_parser("stats", help="print index statistics")
    stats.add_argument("index", help="index file to inspect")

    query = commands.add_parser("query", help="evaluate a search expression")
    query.add_argument("index", help="index file to query")
    query.add_argument(
        "--expr",
        required=True,
        action="append",
        help="search expression, e.g. \"TI='database'\" (repeatable)",
    )
    query.add_argument(
        "--cache-mb",
        type=float,
        default=64.0,
        help="decoded-block cache budget in MiB (0 disables; default 64)",
    )
    query.add_argument("--io", choices=("mmap", "read"), default="mmap")
    query.add_argument(
        "--mode", choices=("optimized", "reference"), default=None
    )
    query.add_argument(
        "--limit", type=int, default=10, help="matching docids to print"
    )

    arguments = parser.parse_args(argv)

    if arguments.command == "build":
        started = time.perf_counter()
        if arguments.synthetic is not None:
            fields = [name for name in arguments.fields.split(",") if name]
            documents = iter_synthetic_documents(
                arguments.synthetic,
                seed=arguments.seed,
                fields=fields,
                vocabulary_size=arguments.vocabulary,
            )
            version = 0
        else:
            store = load_store(arguments.store)
            fields = list(store.field_names)
            documents = iter(store)
            version = store.version
        builder = DiskIndexBuilder(
            fields,
            arguments.out,
            block_size=arguments.block_size,
            memory_budget_mb=arguments.memory_budget_mb,
        )
        count = builder.add_documents(documents)
        path = builder.finish(version=version)
        elapsed = time.perf_counter() - started
        size = path.stat().st_size
        print(
            f"indexed {count} documents into {path} "
            f"({size / 1e6:.1f} MB) in {elapsed:.1f}s"
        )
        return 0

    if arguments.command == "stats":
        with DiskInvertedIndex(arguments.index, cache_budget=0) as index:
            report = index.stats()
        rows = [[key, value] for key, value in report.items() if key != "build"]
        rows += [[f"build.{key}", value] for key, value in report["build"].items()]
        print(ascii_table(["property", "value"], rows, title="disk index"))
        return 0

    budget = int(arguments.cache_mb * 1024 * 1024)
    with DiskInvertedIndex(
        arguments.index, cache_budget=budget, io_mode=arguments.io
    ) as index:
        rows = []
        for expression in arguments.expr:
            node = parse_search(expression)
            started = time.perf_counter()
            outcome = evaluate(index, node, mode=arguments.mode)
            elapsed = time.perf_counter() - started
            matches = [
                index.docid_of(doc)
                for doc in outcome.postings.doc_array[: arguments.limit]
            ]
            rows.append(
                [
                    expression,
                    outcome.doc_count(),
                    outcome.postings_processed,
                    index.pages_read,
                    round(elapsed * 1000, 2),
                    " ".join(matches),
                ]
            )
        print(
            ascii_table(
                ["expression", "matches", "postings", "pages", "ms", "first docids"],
                rows,
                title=f"disk-index query ({arguments.io}, cache "
                f"{arguments.cache_mb:g} MiB)",
            )
        )
        io = index.io_stats()
        cache = io["cache"]
        print(
            f"physical: {io['block_fetches']} block fetches, "
            f"{io['bytes_read']} bytes; cache hit rate "
            f"{cache['hit_rate']:.0%} ({cache['hits']} hits / "
            f"{cache['misses']} misses, {cache['evictions']} evictions)"
        )
    return 0


def _qerror_main(argv: List[str]) -> int:
    """The ``repro qerror`` tool: feedback stores and q-error reports."""
    from repro.bench.feedback_loop import feedback_loop_report, render_report
    from repro.core.feedback import FeedbackStore
    from repro.errors import FeedbackError

    parser = argparse.ArgumentParser(
        prog="repro qerror",
        description="Inspect and exercise the estimator feedback loop: "
        "persistent estimate-vs-actual statistics, q-error reports, and "
        "the two-run demonstration workload.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="print a store's q-error summary"
    )
    report.add_argument("--store", required=True, help="feedback store path")
    report.add_argument(
        "--top", type=int, default=10, help="worst offenders to list"
    )

    demo = commands.add_parser(
        "demo",
        help="run the two-pass stale-statistics workload (plan flips on "
        "run 2) and optionally persist the evidence",
    )
    demo.add_argument("--store", help="save the feedback store here")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--prior-weight", type=float, default=0.5)

    arguments = parser.parse_args(argv)

    if arguments.command == "report":
        try:
            store = FeedbackStore.load(arguments.store)
        except FeedbackError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        summary = store.summary()
        print(
            f"{arguments.store}: {summary['predicates']} predicate "
            f"observations, {summary['records']} estimate records "
            f"(prior weight {summary['prior_weight']:g})"
        )
        print(store.report().render(top=arguments.top))
        return 0

    outcome = feedback_loop_report(
        seed=arguments.seed, prior_weight=arguments.prior_weight
    )
    print(render_report(outcome))
    if arguments.store:
        path = outcome["store"].save(arguments.store)
        print(f"feedback store saved to {path}")
    flipped = outcome["flipped"] and outcome["cheaper"]
    return 0 if flipped and outcome["identity"]["identical"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "index":
        # The index tool has its own subcommand grammar; dispatch before
        # the experiment parser rejects it.
        return _index_main(argv[1:])
    if argv and argv[0] == "qerror":
        return _qerror_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Join Queries with "
        "External Text Sources' (SIGMOD 1995).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table2", "ranking", "figures", "multijoin", "enumeration",
            "trace", "multibackend", "serve", "all",
        ],
        help="which experiment(s) to run",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default 7)"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record every foreign call and print the trace afterwards",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="share one gateway cache across the experiments' clients",
    )
    parser.add_argument(
        "--remote",
        choices=sorted(FAULT_PROFILES),
        help="reach the text server over a simulated network with this "
        "fault profile (retries and circuit breaking included)",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=1,
        help="connection-pool size for batched remote calls (default 1)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the corpus across N shard servers and "
        "scatter-gather every foreign call (0 = unsharded, the default; "
        "combines with --remote for the link profile, else lan)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="failover replicas per shard (only meaningful with --shards)",
    )
    parser.add_argument(
        "--vector",
        action="store_true",
        help="serve only: add a second, ranked (vector-space) backend; "
        "tenants mix top-k similarity searches into their load, charged "
        "to separate per-tenant vector ledgers",
    )
    parser.add_argument(
        "--feedback",
        metavar="PATH",
        help="record estimate-vs-actual feedback into this store "
        "(created if missing; experiments record method q-errors, serve "
        "plans each query with feedback-blended statistics)",
    )
    parser.add_argument(
        "--share-window",
        type=float,
        metavar="SECONDS",
        help="serve only: batch searches admitted within this window "
        "across tenants and execute shared work once (0 keeps pure "
        "single-flight dedup; charges stay as-if-alone, invariant 16)",
    )
    arguments = parser.parse_args(argv)

    feedback = None
    if arguments.feedback:
        from repro.core.feedback import FeedbackStore

        feedback = FeedbackStore.open(arguments.feedback)

    needs_scenario = arguments.experiment in (
        "table2", "ranking", "multijoin", "trace", "serve", "all"
    )
    scenario = build_default_scenario(seed=arguments.seed) if needs_scenario else None
    tracer = None
    transport = None
    vector_server = None
    if scenario is not None:
        if arguments.vector and arguments.experiment == "serve":
            from repro.textsys.vectorserver import VectorTextServer

            # Rank titles of the SAME corpus through a second source with
            # its own semantics and constants (built before any transport
            # wrapping replaces scenario.server).
            vector_server = VectorTextServer(scenario.server.store, "title")
        if arguments.trace:
            tracer = CallTracer(enabled=True)
            scenario.shared_tracer = tracer
        if arguments.cache:
            scenario.shared_cache = GatewayCache()
        if arguments.shards:
            # Sharded scatter-gather: same simulated-network setup as
            # --remote (time_scale=0, persistent retries) but the corpus
            # is partitioned and every shard gets its own channel,
            # breaker, and optional failover replicas.
            transport = build_sharded_transport(
                scenario.server,
                arguments.shards,
                replicas=arguments.replicas,
                profile=arguments.remote or "lan",
                seed=arguments.seed,
                pool_size=arguments.pool,
                time_scale=0.0,
                retry=RetryPolicy(max_attempts=12),
                breaker_factory=lambda: CircuitBreaker(
                    failure_threshold=64, recovery_time=0.05
                ),
            )
            scenario.server = transport
        elif arguments.remote:
            # time_scale=0: pay the simulated network in the accounting
            # report, not in the user's wall clock.  The experiments make
            # thousands of foreign calls, so retry persistently enough
            # that even the degraded profile finishes the run.
            transport = RemoteTextTransport(
                scenario.server,
                profile=arguments.remote,
                seed=arguments.seed,
                pool_size=arguments.pool,
                time_scale=0.0,
                retry=RetryPolicy(max_attempts=12),
                breaker=CircuitBreaker(failure_threshold=64, recovery_time=0.05),
            )
            scenario.server = transport

    ran_any = False
    if arguments.experiment in ("table2", "all"):
        _print_table2(scenario, feedback=feedback)
        print()
        ran_any = True
    if arguments.experiment in ("ranking", "all"):
        _print_ranking(scenario)
        print()
        ran_any = True
    if arguments.experiment in ("figures", "all"):
        _print_figures()
        print()
        ran_any = True
    if arguments.experiment in ("multijoin", "all"):
        _print_multijoin(scenario)
        ran_any = True
    if arguments.experiment in ("enumeration", "all"):
        _print_enumeration()
        print()
        ran_any = True
    if arguments.experiment in ("trace", "all"):
        _print_trace(scenario)
        ran_any = True
    if arguments.experiment in ("multibackend", "all"):
        if arguments.experiment == "all":
            print()
        _print_multibackend(arguments.seed)
        ran_any = True
    if arguments.experiment == "serve":
        _print_serving(
            scenario,
            feedback=feedback,
            vector_server=vector_server,
            share_window=arguments.share_window,
        )
        ran_any = True
    if tracer is not None and tracer.spans:
        print()
        print(format_trace(tracer))
    if transport is not None:
        print()
        if isinstance(transport, ShardedTextTransport):
            _print_sharded_report(transport)
        else:
            _print_transport_report(transport)
    if feedback is not None and ran_any:
        path = feedback.save(arguments.feedback)
        print(f"\nfeedback store saved to {path}")
    return 0 if ran_any else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
