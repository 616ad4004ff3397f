"""Retries and circuit breaking for the remote transport.

The in-process reproduction never fails; a networked text source fails
routinely.  Two cooperating policies keep queries correct and the
accounting honest:

- :class:`RetryPolicy` — exponential backoff with a cap and an optional
  per-call deadline.  Every failed attempt's wire time plus every
  backoff pause is *wasted* seconds; the transport charges that waste
  into the ledger's ``seconds_retried`` channel so retry overhead is as
  visible as the paper's ``c_i``-dominated costs.
- :class:`CircuitBreaker` — after ``failure_threshold`` consecutive
  failures the circuit opens and calls are refused locally (no wire,
  no wasted seconds) until ``recovery_time`` has passed; then one
  half-open probe decides between closing and re-opening.  Every state
  transition is recorded (and traced by the client).

The breaker takes an injectable clock so tests can drive recovery
without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import GatewayError

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a per-call deadline.

    ``max_attempts`` counts the first try: ``max_attempts=4`` means one
    call plus up to three retries.  ``deadline`` (seconds, simulated
    wire time) bounds the *whole* call including backoff pauses; once
    exceeded, no further attempt is made even if attempts remain.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 0.25
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise GatewayError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise GatewayError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise GatewayError("backoff multiplier must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise GatewayError("deadline must be positive when given")

    def backoff(self, attempt: int) -> float:
        """Pause before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise GatewayError("attempt numbers start at 1")
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)

    def exhausted(self, attempts_made: int, elapsed: float) -> bool:
        """No more attempts allowed after ``attempts_made`` tries?"""
        if attempts_made >= self.max_attempts:
            return True
        return self.deadline is not None and elapsed >= self.deadline


#: One breaker transition: (clock time, from-state, to-state).
Transition = Tuple[float, str, str]


class CircuitBreaker:
    """A three-state breaker with half-open probing.

    Thread-safe; all state moves happen under one lock.  The breaker
    never sleeps — ``recovery_time`` is measured against the injected
    ``clock``, so tests can advance time explicitly.

    Half-open admission is gated to one *in-flight* trial call,
    correlated by thread: under pooled dispatch, calls admitted before
    the circuit tripped can still be in flight when the breaker reaches
    half-open, and their late outcomes must not decide the probe — a
    stale success would close the circuit (admitting the whole pool
    while the source may still be down) and a stale failure would
    re-open it under the actual probe.  Only outcomes recorded by
    a thread that :meth:`allow` admitted *as a probe* move the
    half-open state; everyone else's are ignored until the probe rules.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_time: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise GatewayError("failure_threshold must be at least 1")
        if recovery_time < 0:
            raise GatewayError("recovery_time must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.clock = clock
        self.transitions: List[Transition] = []
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Thread ident of the in-flight half-open probe, if any.
        self._probe_thread: Optional[int] = None

    # ------------------------------------------------------------------
    def _move(self, new_state: str) -> None:
        self.transitions.append((self.clock(), self._state, new_state))
        self._state = new_state

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == BREAKER_OPEN
            and self.clock() - self._opened_at >= self.recovery_time
        ):
            self._move(BREAKER_HALF_OPEN)
            self._probe_thread = None

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a call go out right now?  Half-open admits only probes."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                return False
            if self._probe_thread is None:
                self._probe_thread = threading.get_ident()
                return True
            return False

    def _end_probe(self) -> bool:
        """Was the calling thread the half-open probe?  It is not any more."""
        was_probe = self._probe_thread == threading.get_ident()
        if was_probe:
            self._probe_thread = None
        return was_probe

    def record_success(self) -> None:
        with self._lock:
            was_probe = self._end_probe()
            self._consecutive_failures = 0
            if self._state == BREAKER_HALF_OPEN and was_probe:
                self._move(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            was_probe = self._end_probe()
            if self._state == BREAKER_HALF_OPEN:
                if was_probe:
                    # The probe failed: straight back to open.
                    self._move(BREAKER_OPEN)
                    self._opened_at = self.clock()
                    self._consecutive_failures = 0
                return
            self._consecutive_failures += 1
            if (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._move(BREAKER_OPEN)
                self._opened_at = self.clock()

    def drain_transitions(self, seen: int) -> List[Transition]:
        """Transitions recorded after the first ``seen`` (for tracing)."""
        with self._lock:
            return list(self.transitions[seen:])

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"threshold={self.failure_threshold}, "
            f"recovery={self.recovery_time}s)"
        )
