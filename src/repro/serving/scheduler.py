"""Weighted fair scheduling across tenants (stride scheduling).

Classic stride scheduling [Waldspurger & Weihl, OSDI '95]: each tenant
carries a *pass* value advanced by ``stride = STRIDE_UNIT / weight`` on
every dispatch, and the scheduler always dispatches the eligible tenant
with the smallest pass.  Over any window the dispatch counts converge to
the weight ratios, and a tenant that was idle cannot hoard credit: on
re-entry its pass is bumped to the global minimum, so it gets its fair
share *going forward* rather than a burst of catch-up dispatches.

The scheduler is a pure data structure — no locks, no threads.  The
admission queue (:mod:`repro.serving.admission`) drives it under its own
condition variable, which keeps the pick-next step atomic with the queue
bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import ServingError

__all__ = ["StrideScheduler", "STRIDE_UNIT"]

#: Stride numerator: large enough that float strides for any reasonable
#: weight stay well away from each other.
STRIDE_UNIT = float(1 << 20)


class StrideScheduler:
    """Pick-next-tenant by minimum pass value, weights honoured exactly."""

    def __init__(self) -> None:
        self._strides: Dict[str, float] = {}
        self._passes: Dict[str, float] = {}
        # Solo fast path: while exactly one tenant is eligible, pass
        # advancement is deferred to a counter and settled lazily — the
        # single-tenant serving loop skips the dict updates and the
        # min-scan entirely.  Any operation that observes pass values
        # flushes first, so the deferral is never visible.
        self._solo: Optional[str] = None
        self._solo_pending: int = 0

    def _flush_solo(self) -> None:
        """Settle deferred solo dispatches into the tenant's pass."""
        if self._solo is not None and self._solo_pending:
            self._passes[self._solo] += (
                self._strides[self._solo] * self._solo_pending
            )
        self._solo = None
        self._solo_pending = 0

    def register(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ServingError(f"tenant {tenant!r}: weight must be positive")
        if tenant in self._strides:
            raise ServingError(f"tenant {tenant!r} is already registered")
        self._flush_solo()
        self._strides[tenant] = STRIDE_UNIT / weight
        # Join at the current minimum: no retroactive credit for the
        # time before registration.
        self._passes[tenant] = min(self._passes.values(), default=0.0)

    def reactivate(self, tenant: str, busy: Iterable[str]) -> None:
        """Forget credit a tenant accrued while it had nothing queued.

        ``busy`` is the set of tenants with work queued or in flight;
        the returning tenant's pass is raised to their minimum, so an
        idle spell buys the very next dispatch at most — never a burst.
        """
        self._flush_solo()
        floor = min(
            (self._passes[other] for other in busy if other != tenant),
            default=None,
        )
        if floor is not None and self._passes[tenant] < floor:
            self._passes[tenant] = floor

    def pick(self, eligible: Iterable[str]) -> Optional[str]:
        """The eligible tenant with the smallest pass (name breaks ties)."""
        tenants = (
            eligible
            if isinstance(eligible, (list, tuple))
            else list(eligible)
        )
        if not tenants:
            # Nothing to do; leave any solo deferral in place so a
            # momentarily-drained queue does not exit the fast path.
            return None
        if len(tenants) == 1:
            tenant = tenants[0]
            if tenant != self._solo:
                if tenant not in self._passes:
                    raise KeyError(tenant)
                self._flush_solo()
                self._solo = tenant
            return tenant
        self._flush_solo()
        best: Optional[str] = None
        best_pass = float("inf")
        for tenant in tenants:
            tenant_pass = self._passes[tenant]
            if tenant_pass < best_pass or (
                tenant_pass == best_pass and (best is None or tenant < best)
            ):
                best = tenant
                best_pass = tenant_pass
        return best

    def on_dispatch(self, tenant: str) -> None:
        """Advance the tenant's pass by its stride."""
        if tenant == self._solo:
            self._solo_pending += 1
            return
        self._flush_solo()
        self._passes[tenant] += self._strides[tenant]

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._strides

    def __repr__(self) -> str:
        self._flush_solo()
        ranked = sorted(self._passes.items(), key=lambda item: item[1])
        return f"StrideScheduler({ranked})"
