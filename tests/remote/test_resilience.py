"""Retry policy and circuit breaker."""

import threading

import pytest

from repro.errors import GatewayError
from repro.remote.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.04)
        assert policy.backoff(4) == pytest.approx(0.05)  # capped
        assert policy.backoff(9) == pytest.approx(0.05)

    def test_exhausted_by_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2, elapsed=0.0)
        assert policy.exhausted(3, elapsed=0.0)

    def test_exhausted_by_deadline(self):
        policy = RetryPolicy(max_attempts=100, deadline=1.0)
        assert not policy.exhausted(1, elapsed=0.5)
        assert policy.exhausted(1, elapsed=1.0)

    def test_validation(self):
        with pytest.raises(GatewayError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(GatewayError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(GatewayError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(GatewayError):
            RetryPolicy().backoff(0)


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(failure_threshold=3, recovery_time=10.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_after_recovery_then_closes_on_probe_success(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        # ... and the open period restarts from the probe failure.
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_transitions_recorded_and_drainable(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        moves = [(old, new) for _, old, new in breaker.transitions]
        assert moves == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        assert breaker.drain_transitions(2) == breaker.transitions[2:]

    def test_validation(self):
        with pytest.raises(GatewayError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(GatewayError):
            CircuitBreaker(recovery_time=-1.0)

    # -- half-open probe gating under concurrency (regression) ---------

    def _tripped_half_open(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        return breaker, clock

    def _hold_probe_open(self, breaker):
        """Admit a probe on a worker thread and keep it in flight."""
        admitted = []
        entered = threading.Event()
        release = threading.Event()
        outcome = {}

        def probe():
            admitted.append(breaker.allow())
            entered.set()
            release.wait(timeout=5.0)
            if outcome.get("success", True):
                breaker.record_success()
            else:
                breaker.record_failure()

        worker = threading.Thread(target=probe)
        worker.start()
        assert entered.wait(timeout=5.0)
        assert admitted == [True]
        return worker, release, outcome

    def test_stale_success_does_not_close_the_half_open_circuit(self):
        """Regression: a call admitted *before* the trip can report its
        success while the half-open probe is still in flight; that stale
        outcome must not close the circuit (it would admit the whole
        pool against a source only the probe is testing)."""
        breaker, _ = self._tripped_half_open()
        worker, release, _ = self._hold_probe_open(breaker)
        breaker.record_success()  # stale: this thread was never admitted
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # the probe slot is still taken
        release.set()
        worker.join(timeout=5.0)
        assert breaker.state == BREAKER_CLOSED  # the probe itself ruled

    def test_stale_failure_does_not_reopen_under_the_probe(self):
        breaker, _ = self._tripped_half_open()
        worker, release, _ = self._hold_probe_open(breaker)
        breaker.record_failure()  # stale outcome from a pre-trip call
        assert breaker.state == BREAKER_HALF_OPEN
        release.set()
        worker.join(timeout=5.0)
        assert breaker.state == BREAKER_CLOSED

    def test_probe_failure_still_reopens_while_strays_report(self):
        breaker, _ = self._tripped_half_open()
        worker, release, outcome = self._hold_probe_open(breaker)
        breaker.record_success()  # stray success first...
        outcome["success"] = False  # ...then the probe itself fails
        release.set()
        worker.join(timeout=5.0)
        assert breaker.state == BREAKER_OPEN

    def test_exactly_one_concurrent_probe_admitted(self):
        breaker, _ = self._tripped_half_open()
        admitted = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait(timeout=5.0)
            allowed = breaker.allow()
            with lock:
                admitted.append(allowed)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert admitted.count(True) == 1

