"""Live service metrics: QPS, latency percentiles, hit rate, breakers.

:class:`ServiceMetrics` is the one mutable aggregation point the serving
workers share; every update holds its lock, and :meth:`snapshot` hands
back a plain dict assembled from a consistent view — suitable for
printing, JSON, or assertions in the smoke benchmark.

The snapshot pulls in the read-only state of its collaborators too:
cache hit rate from the shared :class:`~repro.gateway.tracing.CallTracer`,
breaker states from the transport's ``report()`` (when the backend is a
remote/sharded deployment), and admission-queue depth.  Those reads are
individually thread-safe; the snapshot does not try to freeze the whole
service in one instant.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

__all__ = ["percentile", "ServiceMetrics"]

#: How many completed-query latencies the rolling window keeps.
LATENCY_WINDOW = 2048


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile (nearest-rank) of ``samples``; 0.0 if empty.

    Nearest-rank: the smallest sample with at least ``fraction`` of the
    distribution at or below it — ``ordered[ceil(fraction * n) - 1]``.
    The old floor-based rank overshot by one position whenever
    ``fraction * n`` landed on an integer (p50 of ``[1, 2]`` returned 2;
    p99 of 100 samples returned the maximum), so single-sample and
    small-window snapshots reported the wrong percentile.
    """
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = min(
        len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1)
    )
    return ordered[rank]


class ServiceMetrics:
    """Thread-safe counters plus a rolling latency window."""

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._started_at = clock()
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # update paths (called by the service)
    # ------------------------------------------------------------------
    def on_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def on_admitted(self) -> None:
        with self._lock:
            self.admitted += 1

    def on_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def on_completed(self, latency_seconds: float) -> None:
        with self._lock:
            self.completed += 1
            self._latencies.append(latency_seconds)

    def on_failed(self, latency_seconds: Optional[float] = None) -> None:
        with self._lock:
            self.failed += 1
            if latency_seconds is not None:
                self._latencies.append(latency_seconds)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(
        self,
        queue_depth: int = 0,
        inflight: int = 0,
        tracer: Optional[Any] = None,
        backend: Optional[Any] = None,
        tenants: Optional[Dict[str, Any]] = None,
        sharing: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One JSON-friendly dict describing the service right now.

        With ``tenants`` (name → :class:`~repro.serving.tenants.
        TenantState`), the snapshot carries a ``per_tenant`` block —
        cache hit rate and cache/shared seconds saved attributed to each
        tenant, not just service-wide.  With ``sharing`` (the service's
        :class:`~repro.gateway.inflight.InflightSearchTable`), it
        carries that table's window/flight/join counters.
        """
        with self._lock:
            elapsed = max(self._clock() - self._started_at, 1e-9)
            latencies = list(self._latencies)
            counts = {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
            }
        snapshot: Dict[str, Any] = {
            **counts,
            "elapsed_seconds": elapsed,
            "qps": counts["completed"] / elapsed,
            "latency_p50": percentile(latencies, 0.50),
            "latency_p99": percentile(latencies, 0.99),
            "latency_max": max(latencies) if latencies else 0.0,
            "queue_depth": queue_depth,
            "inflight": inflight,
        }
        if tracer is not None:
            trace = tracer.summary()
            snapshot["foreign_calls"] = trace["spans"]
            snapshot["cache_hit_rate"] = trace["hit_rate"]
            snapshot["foreign_cost_seconds"] = trace["cost"]
        if tenants is not None:
            snapshot["per_tenant"] = {
                name: _tenant_attribution(state)
                for name, state in tenants.items()
            }
        if sharing is not None:
            snapshot["sharing"] = sharing.stats.snapshot()
        snapshot["breaker_states"] = _breaker_states(backend)
        return snapshot


def _tenant_attribution(state: Any) -> Dict[str, Any]:
    """One tenant's cache/sharing attribution for the snapshot."""
    stats = state.cache_stats
    ledger = state.ledger
    return {
        "cache_hits": stats.hits,
        "cache_lookups": stats.lookups,
        "cache_hit_rate": stats.hit_rate,
        "seconds_saved": ledger.seconds_saved,
        "seconds_shared": ledger.seconds_shared,
        "ledger_total": ledger.total,
    }


def _breaker_states(backend: Optional[Any]) -> List[str]:
    """Breaker states of a remote/sharded backend (empty when in-process)."""
    if backend is None:
        return []
    breaker = getattr(backend, "breaker", None)
    if breaker is not None:  # a single RemoteTextTransport
        return [breaker.state]
    report = getattr(backend, "report", None)
    if report is None:
        return []
    return [
        shard["breaker_state"]
        for shard in report().get("per_shard", [])
        if "breaker_state" in shard
    ]
