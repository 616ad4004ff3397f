"""Cross-query sharing (DESIGN invariant 16).

Two layers under test:

- :class:`InflightSearchTable` under cache-less clients: identical
  concurrent searches collapse to one backend dispatch; distinct
  canonical forms never merge; a failed shared dispatch strands nobody
  and fails only the caller whose search is at fault.
- The full :class:`QueryService` with sharing enabled, across worker /
  shard / pool / window / cache configurations: **every tenant's
  charged ledger is bit-identical (cache off) or identity-preserving
  (cache on) to running alone** — the seconds actually avoided appear
  only in the ``seconds_shared`` side channel, never in ``total``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.joinmethods import JoinContext, TupleSubstitution
from repro.errors import GatewayError, ReproError
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.costs import CostLedger
from repro.gateway.inflight import InflightSearchTable
from repro.remote import build_sharded_transport
from repro.serving import QueryService, TenantSpec
from repro.textsys.server import BooleanTextServer
from repro.workload import build_default_scenario

#: Side channels: real seconds avoided, never part of the charged total.
SIDE_CHANNELS = ("seconds_saved", "seconds_shared", "seconds_retried")

#: Overlap-heavy mixed workload: three tenants mostly running the same
#: queries, so windows and single-flight have real work to share.
SUBMISSIONS = [
    ("alice", "q2"),
    ("bob", "q2"),
    ("carol", "q2"),
    ("alice", "q4"),
    ("bob", "q4"),
    ("carol", "q4"),
    ("alice", "q2"),
    ("bob", "q4"),
    ("carol", "q2"),
]

SPECS = [TenantSpec("alice"), TenantSpec("bob"), TenantSpec("carol")]


@pytest.fixture(scope="module")
def sharing_scenario():
    return build_default_scenario(seed=7, document_count=800)


@pytest.fixture(scope="module")
def alone_oracle(sharing_scenario):
    """Per-tenant ledgers from a serial, uncached, unshared run.

    Mirrors the service's wiring (cumulative ledger per tenant, fresh
    client per query) over the same 1-shard transport family the
    service runs on; charges are shard-count invariant, so one oracle
    serves every deployment in the grid.
    """
    backend = build_sharded_transport(
        sharing_scenario.server,
        1,
        profile="wan",
        seed=7,
        time_scale=0.0,
        pool_size=1,
    )
    ledgers = {}
    for tenant, query_id in SUBMISSIONS:
        ledger = ledgers.setdefault(
            tenant, CostLedger(constants=sharing_scenario.constants)
        )
        client = TextClient(backend, ledger=ledger)
        context = JoinContext(sharing_scenario.catalog, client)
        TupleSubstitution().execute(sharing_scenario.query(query_id), context)
    backend.close()
    return ledgers


def run_service(
    scenario,
    workers: int,
    shards: int,
    pool: int,
    window,
    cache_on: bool,
):
    backend = build_sharded_transport(
        scenario.server,
        shards,
        profile="wan",
        seed=7,
        time_scale=0.0,
        pool_size=pool,
    )
    service = QueryService(
        scenario,
        SPECS,
        workers=workers,
        capacity=32,
        backend=backend,
        cache=GatewayCache() if cache_on else None,
        share_window=window,
    )
    with service:
        tickets = [
            service.submit(tenant, query_id)
            for tenant, query_id in SUBMISSIONS
        ]
        for ticket in tickets:
            ticket.result(timeout=120)
    backend.close()
    return service


def strip_side_channels(report: dict) -> dict:
    return {
        key: value
        for key, value in report.items()
        if key not in SIDE_CHANNELS
    }


# ---------------------------------------------------------------------------
# the table, under cache-less clients
# ---------------------------------------------------------------------------
class CountingServer:
    """Delegates to a real server; counts dispatches; optional failure."""

    def __init__(self, inner, fail=False):
        self._inner = inner
        self._lock = threading.Lock()
        self.searches = 0
        self.batches = 0
        self.fail = fail

    def search(self, query):
        with self._lock:
            self.searches += 1
        if self.fail:
            raise GatewayError("injected backend failure")
        return self._inner.search(query)

    def search_batch(self, queries):
        with self._lock:
            self.batches += 1
            self.searches += len(queries)
        if self.fail:
            raise GatewayError("injected backend failure")
        return [self._inner.search(query) for query in queries]

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _search_concurrently(server, table, queries):
    """One cache-less client per query, released together; returns
    (clients, results, errors)."""
    clients = [TextClient(server, inflight=table) for _ in queries]
    barrier = threading.Barrier(len(queries))
    results = [None] * len(queries)
    errors = [None] * len(queries)

    def runner(index):
        barrier.wait()
        try:
            results[index] = clients[index].search(queries[index])
        except Exception as error:  # noqa: BLE001 - collected for asserts
            errors[index] = error

    threads = [
        threading.Thread(target=runner, args=(index,))
        for index in range(len(queries))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    return clients, results, errors


class TestSharedSearchExecutor:
    """The sharing behaviours of the in-flight table (the class keeps
    the name of the executor the table replaced)."""

    def test_identical_searches_collapse_to_one_dispatch(self, tiny_server):
        server = CountingServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        table = InflightSearchTable(
            window_seconds=0.2, inflight_hint=lambda: 3
        )
        clients, results, errors = _search_concurrently(
            server, table, ["TI='belief'"] * 3
        )
        assert errors == [None, None, None]
        assert server.searches == 1
        docids = {tuple(result.docids) for result in results}
        assert len(docids) == 1
        # Everyone is charged the alone price; exactly the joiners carry
        # the side-channel credit for the dispatch they did not cause.
        alone = TextClient(tiny_server)
        alone.search("TI='belief'")
        assert all(c.ledger.total == alone.ledger.total for c in clients)
        shared = [client.ledger.seconds_shared for client in clients]
        assert sorted(shared) == [0.0, alone.ledger.total, alone.ledger.total]
        snapshot = table.stats.snapshot()
        assert snapshot["shared_searches"] == 2  # two joins, one dispatch
        assert snapshot["seconds_shared"] == pytest.approx(sum(shared))

    def test_distinct_canonical_forms_never_merge(self, tiny_server):
        server = CountingServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        table = InflightSearchTable(
            window_seconds=0.2, inflight_hint=lambda: 2
        )
        clients, results, errors = _search_concurrently(
            server, table, ["TI='belief'", "AB='retrieval'"]
        )
        assert errors == [None, None]
        # Two flights — batched into one invocation, but each query ran.
        assert server.searches == 2
        assert server.batches == 1
        assert results[0].docids != results[1].docids
        assert all(c.ledger.seconds_shared == 0.0 for c in clients)

    def test_commuted_forms_share_one_flight(self, tiny_server):
        server = CountingServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        table = InflightSearchTable(
            window_seconds=0.2, inflight_hint=lambda: 2
        )
        _, results, errors = _search_concurrently(
            server,
            table,
            ["TI='belief' and AB='update'", "AB='update' and TI='belief'"],
        )
        assert errors == [None, None]
        assert server.searches == 1
        assert tuple(results[0].docids) == tuple(results[1].docids)

    def test_failure_fans_out_to_every_participant(self, tiny_server):
        """A backend that is down fails everyone — the leader from its
        own dispatch, each joiner from its one direct re-dispatch."""
        server = CountingServer(BooleanTextServer(tiny_server.store, batch_limit=50), fail=True)
        table = InflightSearchTable(
            window_seconds=0.2, inflight_hint=lambda: 3
        )
        clients, results, errors = _search_concurrently(
            server, table, ["TI='belief'"] * 3
        )
        assert results == [None, None, None]
        assert all(isinstance(error, GatewayError) for error in errors)
        assert server.searches == 3  # one shared attempt + two fallbacks
        assert all(client.ledger.total == 0.0 for client in clients)
        # The failed flight was removed: a retry dispatches afresh.
        server.fail = False
        retry = TextClient(server, inflight=table).search("TI='belief'")
        assert retry is not None
        assert server.searches == 4

    def test_poisoned_query_fails_only_its_own_caller(self, tiny_server):
        """Two tenants in one window, one sends a search over the term
        limit: the batch carrying both is refused, yet only the offender
        fails — the other re-dispatches alone and is charged exactly the
        alone price.  (Before the fallback rule the whole window failed
        with the offender's error.)"""
        server = CountingServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        table = InflightSearchTable(
            window_seconds=0.5, inflight_hint=lambda: 2
        )
        poisoned = " and ".join(
            f"TI='word{index}'" for index in range(tiny_server.term_limit + 1)
        )
        clients, results, errors = _search_concurrently(
            server, table, ["TI='belief'", poisoned]
        )
        assert server.batches == 1  # they did share the window
        assert errors[0] is None
        assert tuple(results[0].docids) == tuple(
            tiny_server.search("TI='belief'").docids
        )
        assert isinstance(errors[1], ReproError)
        assert "limit" in str(errors[1])
        alone = TextClient(tiny_server)
        alone.search("TI='belief'")
        assert clients[0].ledger.report() == alone.ledger.report()
        assert clients[1].ledger.report() == CostLedger().report()
        assert table.stats.snapshot()["shared_searches"] == 0

    def test_zero_window_still_single_flights(self, tiny_server):
        class SlowServer(CountingServer):
            def search(self, query):
                import time

                time.sleep(0.03)
                return super().search(query)

        server = SlowServer(BooleanTextServer(tiny_server.store, batch_limit=50))
        _, results, errors = _search_concurrently(
            server, InflightSearchTable(), ["TI='belief'"] * 4
        )
        assert errors == [None] * 4
        assert server.searches == 1
        assert len({tuple(result.docids) for result in results}) == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(GatewayError):
            InflightSearchTable(window_seconds=-0.1)
        with pytest.raises(GatewayError):
            InflightSearchTable(max_batch=0)


# ---------------------------------------------------------------------------
# invariant 16 at service scale
# ---------------------------------------------------------------------------
#: (workers, shards, pool, share_window, cache_on)
GRID = [
    (1, 1, 1, 0.02, False),
    (2, 2, 1, 0.02, False),
    (4, 2, 4, 0.02, False),
    (4, 1, 1, 0.0, False),  # pure single-flight, no batch window
    (4, 2, 4, None, False),  # sharing disabled: the control row
    (2, 1, 1, 0.02, True),
    (4, 2, 4, 0.02, True),
]


@pytest.mark.parametrize("workers,shards,pool,window,cache_on", GRID)
def test_invariant16_charged_as_if_alone(
    sharing_scenario, alone_oracle, workers, shards, pool, window, cache_on
):
    service = run_service(
        sharing_scenario, workers, shards, pool, window, cache_on
    )
    for tenant, oracle in alone_oracle.items():
        ledger = service.tenant(tenant).ledger
        if cache_on:
            # The cache answers some calls for free and credits exactly
            # the avoided charge, so charged + saved reconstructs the
            # alone-uncached spend; sharing adds nothing to either side.
            assert ledger.total + ledger.seconds_saved == pytest.approx(
                oracle.total
            )
        else:
            # Bit-identical accounting: same counts, same total — the
            # only divergence from running alone is the side channel.
            assert ledger.total == oracle.total
            assert strip_side_channels(ledger.report()) == strip_side_channels(
                oracle.report()
            )
            assert ledger.seconds_saved == 0.0
        if window is None:
            assert ledger.seconds_shared == 0.0


@given(
    order=st.permutations(SUBMISSIONS),
    config=st.sampled_from(
        [(1, 1, 1, 0.02), (2, 2, 1, 0.0), (4, 1, 4, 0.02), (4, 2, 2, 0.02)]
    ),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_invariant16_holds_under_any_interleaving(
    sharing_scenario, alone_oracle, order, config
):
    """Hypothesis: submission order and deployment shape never leak
    shared savings into any tenant's charged total (cache off → exact
    equality with the alone oracle; the multiset per tenant is fixed,
    so the module oracle stays valid for every permutation)."""
    workers, shards, pool, window = config
    backend = build_sharded_transport(
        sharing_scenario.server,
        shards,
        profile="wan",
        seed=7,
        time_scale=0.0,
        pool_size=pool,
    )
    service = QueryService(
        sharing_scenario,
        SPECS,
        workers=workers,
        capacity=32,
        backend=backend,
        share_window=window,
    )
    with service:
        tickets = [
            service.submit(tenant, query_id) for tenant, query_id in order
        ]
        for ticket in tickets:
            ticket.result(timeout=120)
    backend.close()
    for tenant, oracle in alone_oracle.items():
        ledger = service.tenant(tenant).ledger
        assert ledger.total == oracle.total
        assert strip_side_channels(ledger.report()) == strip_side_channels(
            oracle.report()
        )


def test_sharing_engages_and_is_attributed(sharing_scenario, alone_oracle):
    """Lockstep identical queries from three tenants: windows actually
    merge work (server does less than 3x the alone work), the savings
    land in ``seconds_shared``, and the metrics snapshot attributes
    cache/sharing per tenant.

    Engagement is made deterministic two ways.  All nine queries are
    admitted *before* the workers start, so the tenants' identical
    queries begin within microseconds of each other.  And the wire has
    real (scaled) latency: each probe stays in flight for milliseconds,
    so a tenant trailing by the tiny per-step drift joins the leader's
    in-flight flight and the three queries re-synchronize at every
    shared probe.  (At ``time_scale=0`` flights resolve in microseconds,
    the tenants drift to different probe positions, and identical keys
    almost never coincide — sharing then depends on scheduler luck.)
    Transport latency never touches the cost model, so the alone-oracle
    identity still holds exactly."""
    backend = build_sharded_transport(
        sharing_scenario.server,
        1,
        profile="wan",
        seed=7,
        time_scale=0.25,
        pool_size=4,
    )
    service = QueryService(
        sharing_scenario,
        SPECS,
        workers=4,
        capacity=32,
        backend=backend,
        share_window=0.05,
    )
    tickets = [
        service.submit(tenant, query_id) for tenant, query_id in SUBMISSIONS
    ]
    with service:
        for ticket in tickets:
            ticket.result(timeout=120)
    backend.close()
    sharing = service.metrics_snapshot()["sharing"]
    assert sharing["shared_searches"] > 0
    assert sharing["seconds_shared"] > 0
    total_shared = sum(
        service.tenant(name).ledger.seconds_shared for name in ("alice", "bob", "carol")
    )
    assert total_shared == pytest.approx(sharing["seconds_shared"])
    per_tenant = service.metrics_snapshot()["per_tenant"]
    for name in ("alice", "bob", "carol"):
        assert per_tenant[name]["seconds_shared"] == pytest.approx(
            service.tenant(name).ledger.seconds_shared
        )
        assert per_tenant[name]["ledger_total"] == alone_oracle[name].total
    # Tenant report() carries the side channel too.
    report = service.tenant("alice").report()
    assert "seconds_shared" in report
