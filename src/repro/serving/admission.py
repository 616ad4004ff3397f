"""Bounded admission with backpressure and weighted-fair dequeue.

The queue is the service's front door.  It enforces three things at
once, under one condition variable:

- **bounded backlog** — at most ``capacity`` requests may be pending
  across all tenants; an :meth:`AdmissionQueue.offer` beyond that raises
  :class:`~repro.errors.AdmissionRejected` carrying a ``retry_after``
  estimate (backlog × recent service time ÷ workers), so well-behaved
  clients can back off instead of hammering;
- **weighted fair dispatch** — :meth:`take` hands workers the next
  request of the eligible tenant with the smallest stride-scheduling
  pass (:mod:`repro.serving.scheduler`), so a flood from one tenant
  cannot starve the others beyond its weight share;
- **per-tenant in-flight limit** — a tenant's queries execute at most
  ``max_inflight`` at a time (default 1).  This is what keeps each
  tenant's :class:`~repro.gateway.costs.CostLedger` *single-writer at a
  time*, so per-query before/after ledger diffs stay exact while the
  ledger itself remains lock-protected against cross-tenant sharing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.errors import AdmissionRejected, ServingError
from repro.serving.scheduler import StrideScheduler

__all__ = ["AdmissionQueue", "DEFAULT_RETRY_AFTER"]

#: Fallback retry-after before any service time has been observed.
DEFAULT_RETRY_AFTER = 0.05

#: How many recent per-query service durations feed the retry-after
#: estimate.
SERVICE_TIME_WINDOW = 64


class AdmissionQueue:
    """Bounded multi-tenant queue with stride-fair dequeue."""

    def __init__(
        self,
        capacity: int,
        workers: int = 1,
        max_inflight: int = 1,
    ) -> None:
        if capacity < 1:
            raise ServingError("admission capacity must be at least 1")
        if workers < 1:
            raise ServingError("worker count must be at least 1")
        if max_inflight < 1:
            raise ServingError("per-tenant in-flight limit must be at least 1")
        self.capacity = capacity
        self.workers = workers
        self.max_inflight = max_inflight
        self._condition = threading.Condition()
        self._scheduler = StrideScheduler()
        self._queues: Dict[str, Deque[Any]] = {}
        self._inflight: Dict[str, int] = {}
        self._depth = 0
        self._closed = False
        self._service_times: Deque[float] = deque(maxlen=SERVICE_TIME_WINDOW)

    # ------------------------------------------------------------------
    # registration and introspection
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str, weight: float) -> None:
        with self._condition:
            self._scheduler.register(tenant, weight)
            self._queues[tenant] = deque()
            self._inflight[tenant] = 0

    @property
    def depth(self) -> int:
        """Requests queued (not counting in-flight ones)."""
        with self._condition:
            return self._depth

    @property
    def inflight(self) -> int:
        with self._condition:
            return sum(self._inflight.values())

    def _retry_after_locked(self) -> float:
        if not self._service_times:
            return DEFAULT_RETRY_AFTER
        average = sum(self._service_times) / len(self._service_times)
        backlog = self._depth + sum(self._inflight.values())
        return max(DEFAULT_RETRY_AFTER, average * backlog / self.workers)

    # ------------------------------------------------------------------
    # the producer side
    # ------------------------------------------------------------------
    def offer(self, tenant: str, item: Any) -> None:
        """Enqueue, or raise :class:`AdmissionRejected` when full/closed."""
        with self._condition:
            if self._closed:
                raise AdmissionRejected("the service is shut down", 0.0)
            if tenant not in self._queues:
                raise ServingError(f"unknown tenant {tenant!r}")
            if self._depth >= self.capacity:
                raise AdmissionRejected(
                    f"admission queue full ({self.capacity} pending)",
                    self._retry_after_locked(),
                )
            queue = self._queues[tenant]
            if not queue and self._inflight[tenant] == 0:
                # Coming back from idle: no hoarded scheduling credit.
                busy = [
                    name
                    for name, pending in self._queues.items()
                    if pending or self._inflight[name]
                ]
                self._scheduler.reactivate(tenant, busy)
            queue.append(item)
            self._depth += 1
            self._condition.notify()

    # ------------------------------------------------------------------
    # the consumer side (service workers)
    # ------------------------------------------------------------------
    def _eligible(self) -> list:
        return [
            tenant
            for tenant, queue in self._queues.items()
            if queue and self._inflight[tenant] < self.max_inflight
        ]

    def take(self, timeout: Optional[float] = None) -> Optional[Tuple[str, Any]]:
        """Dequeue the fairest next request; None on timeout or shutdown.

        The caller MUST pair every successful take with a later
        :meth:`done` for the same tenant.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                if self._closed and self._depth == 0:
                    return None
                tenant = self._scheduler.pick(self._eligible())
                if tenant is not None:
                    item = self._queues[tenant].popleft()
                    self._depth -= 1
                    self._inflight[tenant] += 1
                    self._scheduler.on_dispatch(tenant)
                    return tenant, item
                if deadline is None:
                    self._condition.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._condition.wait(remaining)

    def done(self, tenant: str, service_seconds: Optional[float] = None) -> None:
        """Release the tenant's in-flight slot (records service time)."""
        with self._condition:
            if self._inflight.get(tenant, 0) < 1:
                raise ServingError(
                    f"done() without a matching take() for tenant {tenant!r}"
                )
            self._inflight[tenant] -= 1
            if service_seconds is not None and service_seconds >= 0:
                self._service_times.append(service_seconds)
            self._condition.notify_all()

    def close(self, drain: bool = True) -> list:
        """Stop accepting offers; workers drain the backlog (or drop it).

        Returns the items dropped when ``drain`` is False (always empty
        otherwise) so the caller can fail their waiters instead of
        leaving them hanging.
        """
        dropped = []
        with self._condition:
            self._closed = True
            if not drain:
                for queue in self._queues.values():
                    dropped.extend(queue)
                    queue.clear()
                self._depth = 0
            self._condition.notify_all()
        return dropped

    def __repr__(self) -> str:
        with self._condition:
            return (
                f"AdmissionQueue({self._depth}/{self.capacity} queued, "
                f"{sum(self._inflight.values())} in flight, "
                f"{len(self._queues)} tenants)"
            )
