"""Concurrent multi-tenant serving over the text-join gateway.

The paper measures one query at a time; this package serves a *stream*
of join queries from N tenants concurrently, on top of the (now
thread-safe) gateway accounting:

- :mod:`repro.serving.tenants` — tenant specs, budgeted ledgers, quotas;
- :mod:`repro.serving.scheduler` — stride-based weighted fair sharing;
- :mod:`repro.serving.admission` — bounded queue with backpressure;
- :mod:`repro.serving.metrics` — QPS / latency / hit-rate snapshots;
- :mod:`repro.serving.service` — the worker pool tying it together.

Cross-query search sharing is not a serving module: ``QueryService(
share_window=...)`` builds one :class:`~repro.gateway.inflight.
InflightSearchTable` and hands it to every query's client.
"""

from repro.serving.admission import AdmissionQueue
from repro.serving.metrics import ServiceMetrics, percentile
from repro.serving.scheduler import STRIDE_UNIT, StrideScheduler
from repro.serving.service import QueryService, QueryTicket
from repro.serving.tenants import BudgetedCostLedger, TenantSpec, TenantState

__all__ = [
    "AdmissionQueue",
    "ServiceMetrics",
    "percentile",
    "StrideScheduler",
    "STRIDE_UNIT",
    "QueryService",
    "QueryTicket",
    "BudgetedCostLedger",
    "TenantSpec",
    "TenantState",
]
