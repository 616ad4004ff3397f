"""The multi-tenant query service: admission → fair dispatch → execution.

:class:`QueryService` is the serving front-end over one integrated
system (a :class:`~repro.workload.scenarios.Scenario` plus, optionally,
a remote or sharded transport).  N tenants submit join queries from
their own threads; a pool of worker threads executes them with the
existing join methods, charging each tenant's *shared, budgeted,
thread-safe* ledger.

The concurrency story, in one place:

- :class:`~repro.serving.admission.AdmissionQueue` bounds the backlog
  (reject-with-retry-after), fair-dispatches by stride weight, and caps
  each tenant at one in-flight query;
- every query runs through a **fresh** :class:`~repro.gateway.client.
  TextClient` wired to the tenant's ledger and the service-wide shared
  cache/tracer — clients are cheap, and a fresh one per query keeps all
  per-query state worker-local;
- the per-tenant in-flight cap of 1 makes the ledger effectively
  single-writer per query, so the per-query ``ledger.diff`` attribution
  inside ``finalize_execution`` stays exact even though the ledger
  object itself is shared (and locked) across the tenant's lifetime;
- charge identity (DESIGN invariant 12): with the cache off, summing
  each tenant's ledger at the end equals a serial run of the same
  queries bit-identically — the costs are functions of integer counts,
  and the locks mean no increment is ever lost.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.adaptive import execute_adaptively
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import JoinContext, JoinMethod, TupleSubstitution
from repro.core.query import TextJoinQuery
from repro.errors import AdmissionRejected, ServingError
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.costs import VECTOR_CONSTANTS, CostConstants
from repro.gateway.inflight import InflightSearchTable
from repro.gateway.tracing import CallTracer
from repro.textsys.vector import VectorQuery
from repro.serving.admission import AdmissionQueue
from repro.serving.metrics import ServiceMetrics
from repro.serving.tenants import TenantSpec, TenantState
from repro.workload.scenarios import Scenario

__all__ = ["QueryTicket", "QueryService"]

#: Workers poll the queue at this granularity while idle, so stop()
#: never needs to interrupt a blocking wait.
_TAKE_TIMEOUT = 0.05


class QueryTicket:
    """A submitted query's future result."""

    def __init__(self, tenant: str, query: Any, method: Optional[JoinMethod]) -> None:
        self.tenant = tenant
        self.query = query
        self.method = method
        self.submitted_at = time.monotonic()
        self.latency: Optional[float] = None
        self.execution: Optional[Any] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def _finish(self, execution: Any, error: Optional[BaseException]) -> None:
        self.execution = execution
        self.error = error
        self.latency = time.monotonic() - self.submitted_at
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the outcome; re-raises the query's failure, if any."""
        if not self._done.wait(timeout):
            raise ServingError(
                f"query for tenant {self.tenant!r} not done after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        return self.execution

    def __repr__(self) -> str:
        state = "done" if self._done.is_set() else "pending"
        return f"QueryTicket({self.tenant!r}, {state})"


class QueryService:
    """A concurrent multi-tenant serving front-end over one scenario.

    Usage::

        specs = [TenantSpec("alice", weight=2.0), TenantSpec("bob")]
        with QueryService(scenario, specs, workers=4, capacity=16) as svc:
            ticket = svc.submit("alice", "q1")
            execution = ticket.result(timeout=30)
        print(svc.metrics_snapshot())

    ``backend`` defaults to the scenario's in-process server; pass a
    :class:`~repro.remote.transport.RemoteTextTransport` or
    :class:`~repro.remote.router.ShardedTextTransport` to serve over the
    remote stack (that is where worker concurrency buys wall-clock
    throughput — simulated network pauses overlap across workers).
    """

    def __init__(
        self,
        scenario: Scenario,
        tenants: Sequence[TenantSpec],
        workers: int = 4,
        capacity: int = 16,
        backend: Optional[Any] = None,
        cache: Optional[GatewayCache] = None,
        tracer: Optional[CallTracer] = None,
        feedback: Optional[Any] = None,
        statistics: Optional[Any] = None,
        vector_backend: Optional[Any] = None,
        vector_constants: Optional[CostConstants] = None,
        share_window: Optional[float] = None,
    ) -> None:
        if not tenants:
            raise ServingError("a service needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ServingError(f"duplicate tenant names in {names}")
        self.scenario = scenario
        self.backend = backend if backend is not None else scenario.server
        #: Optional second text source with ranked (vector) semantics.
        #: Tenants submit :class:`~repro.textsys.vector.VectorQuery`
        #: objects; each runs against this backend and charges the
        #: tenant's *vector* ledger with the vector constants — never
        #: the Boolean ledger (DESIGN invariant 15).
        self.vector_backend = vector_backend
        self.vector_constants = (
            vector_constants
            if vector_constants is not None
            else (VECTOR_CONSTANTS if vector_backend is not None else None)
        )
        self.cache = cache
        self.tracer = tracer if tracer is not None else CallTracer(enabled=True)
        #: When a :class:`~repro.core.feedback.FeedbackStore` is wired
        #: in, tickets submitted without an explicit method are planned
        #: per query with feedback-blended statistics, and every
        #: completed plan records its predicted-vs-measured cost.  The
        #: shared ``statistics`` registry amortizes sampling across
        #: queries; concurrent first touches at worst duplicate a
        #: sampling round (each worker charges its own tenant).
        self.feedback = feedback
        self.statistics = statistics
        self.metrics = ServiceMetrics()
        self.workers = workers
        self._queue = AdmissionQueue(capacity, workers=workers, max_inflight=1)
        #: Cross-query sharing: with a ``share_window`` (seconds; 0 is
        #: single-flight dedupe only) every query's client coalesces its
        #: Boolean searches through this one in-flight table — merged by
        #: share key, executed once through the backend's
        #: ``search_batch``, fanned out — with every tenant still
        #: charged as if alone (DESIGN invariant 16).
        self.sharing: Optional[InflightSearchTable] = None
        if share_window is not None:
            self.sharing = InflightSearchTable(
                window_seconds=share_window,
                inflight_hint=lambda: self._queue.inflight,
            )
        self._tenants: Dict[str, TenantState] = {}
        for spec in tenants:
            state = TenantState.from_spec(
                spec, scenario.constants, vector_constants=self.vector_constants
            )
            self._tenants[spec.name] = state
            self._queue.register_tenant(spec.name, spec.weight)
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        if self._started:
            raise ServingError("the service is already started")
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serving-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` the backlog finishes first."""
        self._stopping.set()
        dropped = self._queue.close(drain=drain)
        for ticket in dropped:
            ticket._finish(None, ServingError("the service was stopped"))
            self._tenants[ticket.tenant].record_outcome(False)
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the tenant-facing API
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        query: Union[str, Any],
        method: Optional[JoinMethod] = None,
    ) -> QueryTicket:
        """Admit one query; returns a ticket to wait on.

        ``query`` may be a canonical query id (``"q1"``..``"q4"``) or a
        ready :class:`~repro.core.query.TextJoinQuery`.  Raises
        :class:`~repro.errors.QuotaExceededError` /
        :class:`~repro.errors.BudgetExceededError` when the tenant is
        out of quota or budget, and
        :class:`~repro.errors.AdmissionRejected` (with ``retry_after``)
        under backpressure.
        """
        self.metrics.on_submitted()
        state = self._tenants.get(tenant)
        if state is None:
            raise ServingError(f"unknown tenant {tenant!r}")
        if isinstance(query, str):
            query = self.scenario.query(query)
        if isinstance(query, VectorQuery) and self.vector_backend is None:
            self.metrics.on_rejected()
            raise ServingError(
                "this service has no vector backend; pass vector_backend= "
                "to serve ranked queries"
            )
        try:
            state.try_admit(vector=isinstance(query, VectorQuery))
        except ServingError:
            self.metrics.on_rejected()
            raise
        ticket = QueryTicket(tenant, query, method)
        try:
            self._queue.offer(tenant, ticket)
        except AdmissionRejected:
            state.release_admission()
            self.metrics.on_rejected()
            raise
        self.metrics.on_admitted()
        return ticket

    # ------------------------------------------------------------------
    # the worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            taken = self._queue.take(timeout=_TAKE_TIMEOUT)
            if taken is None:
                if self._stopping.is_set():
                    return
                continue
            tenant, ticket = taken
            state = self._tenants[tenant]
            started = time.monotonic()
            try:
                execution = self._execute(state, ticket)
            except BaseException as error:  # noqa: BLE001 — failures belong to the ticket
                ticket._finish(None, error)
                state.record_outcome(False)
                self.metrics.on_failed(time.monotonic() - ticket.submitted_at)
            else:
                ticket._finish(execution, None)
                state.record_outcome(True)
                self.metrics.on_completed(time.monotonic() - ticket.submitted_at)
            finally:
                self._queue.done(tenant, time.monotonic() - started)
                if self.sharing is not None:
                    # One fewer query executing: a window may now cover
                    # all that are left.
                    self.sharing.wake()

    def _execute(self, state: TenantState, ticket: QueryTicket) -> Any:
        if isinstance(ticket.query, VectorQuery):
            # Ranked searches go to the vector backend and charge the
            # tenant's vector ledger only; the shared Boolean cache is
            # deliberately NOT consulted (different source, different
            # semantics — a hit would cross the attribution boundary).
            client = TextClient(
                self.vector_backend,
                tracer=self.tracer,
                ledger=state.vector_ledger,
            )
            return client.search(ticket.query)
        client = TextClient(
            self.backend,
            cache=self.cache,
            tracer=self.tracer,
            ledger=state.ledger,
            cache_stats=state.cache_stats,
            inflight=self.sharing,
        )
        context = JoinContext(self.scenario.catalog, client)
        method = ticket.method
        if method is None and self.feedback is not None:
            planned = self._plan_with_feedback(ticket.query, context)
            if planned is not None:
                return planned
        if method is None:
            method = TupleSubstitution()
        return method.execute(ticket.query, context)

    def _plan_with_feedback(self, query: Any, context: JoinContext) -> Any:
        """Cost-based planning with feedback-blended statistics.

        Returns the finished execution, or None when the query is not a
        single text join (multi-join queries keep the default path).
        The plan runs under :func:`~repro.core.adaptive.
        execute_adaptively`'s Section 5 fetch guard.  Statistics
        gathering passes through the tenant's own client but charges
        nothing; execution (aborted attempts included) charges the
        tenant's ledger, and the feedback store only ever *reads* the
        spend afterwards (DESIGN invariant 14).
        """
        if not isinstance(query, TextJoinQuery):
            return None
        inputs = build_cost_inputs(
            query, context, registry=self.statistics, feedback=self.feedback
        )
        return execute_adaptively(
            query, context, inputs, feedback=self.feedback
        ).execution

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantState:
        return self._tenants[name]

    def ledger_totals(self) -> Dict[str, float]:
        """Each tenant's cumulative simulated seconds (the identity sums)."""
        return {
            name: state.ledger.total for name, state in self._tenants.items()
        }

    def vector_ledger_totals(self) -> Dict[str, float]:
        """Each tenant's vector-backend spend (empty without a backend)."""
        return {
            name: state.vector_ledger.total
            for name, state in self._tenants.items()
            if state.vector_ledger is not None
        }

    def tenant_reports(self) -> List[Dict[str, Any]]:
        return [state.report() for state in self._tenants.values()]

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Service-wide live metrics (see :mod:`repro.serving.metrics`)."""
        return self.metrics.snapshot(
            queue_depth=self._queue.depth,
            inflight=self._queue.inflight,
            tracer=self.tracer,
            backend=self.backend,
            tenants=self._tenants,
            sharing=self.sharing,
        )

    def __repr__(self) -> str:
        return (
            f"QueryService({len(self._tenants)} tenants, "
            f"{self.workers} workers, {self._queue!r})"
        )
