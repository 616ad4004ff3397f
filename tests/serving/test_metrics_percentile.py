"""Percentile correctness and thread-safety of :mod:`repro.serving.metrics`.

The old floor-based nearest-rank (``ordered[min(n-1, floor(f*n))]``)
overshot by one position whenever ``fraction * n`` landed exactly on an
integer: p50 of ``[1, 2]`` returned 2, p99 of 100 samples returned the
maximum, and a single-sample window reported its one latency as every
percentile *except* p0.  These tests fail against that implementation
and pin the ceil-based rank, the empty-window zero, and the snapshot's
consistency under tight thread switching.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.serving.metrics import LATENCY_WINDOW, ServiceMetrics, percentile

THREADS = 8
ITERATIONS = 2_000


@pytest.fixture
def tight_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


class TestPercentile:
    def test_empty_window_is_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.5], fraction) == 7.5

    def test_two_samples_p50_is_the_lower(self):
        # The pre-fix floor rank returned 2 here.
        assert percentile([1.0, 2.0], 0.5) == 1.0

    def test_hundred_samples_p99_is_the_99th(self):
        # The pre-fix floor rank returned 100 (the maximum) here.
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.0) == 1.0

    def test_order_insensitive(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.5) == 3.0
        assert percentile(sorted(samples, reverse=True), 0.5) == 3.0

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestSnapshotEdges:
    def test_snapshot_with_no_latencies(self):
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50"] == 0.0
        assert snapshot["latency_p99"] == 0.0
        assert snapshot["latency_max"] == 0.0
        assert snapshot["completed"] == 0

    def test_snapshot_with_one_latency(self):
        metrics = ServiceMetrics()
        metrics.on_completed(0.25)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50"] == 0.25
        assert snapshot["latency_p99"] == 0.25
        assert snapshot["latency_max"] == 0.25

    def test_window_is_bounded(self):
        metrics = ServiceMetrics()
        for value in range(LATENCY_WINDOW + 100):
            metrics.on_completed(float(value))
        samples = list(metrics._latencies)
        assert len(samples) == LATENCY_WINDOW
        assert min(samples) == 100.0  # the oldest 100 rolled out


class TestConcurrency:
    def test_concurrent_record_and_snapshot(self, tight_switching):
        """Counters never drop an increment and snapshots never see a
        torn view (percentiles computed over a mid-append window must
        not raise, and final counts are exact)."""
        metrics = ServiceMetrics()
        errors = []

        def recorder(worker: int) -> None:
            try:
                for index in range(ITERATIONS):
                    if (worker + index) % 4 == 0:
                        metrics.on_failed(0.001 * index)
                    else:
                        metrics.on_completed(0.001 * index)
                    metrics.on_submitted()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        def reader() -> None:
            try:
                for _ in range(ITERATIONS // 4):
                    snapshot = metrics.snapshot()
                    assert snapshot["latency_p50"] >= 0.0
                    assert snapshot["latency_p99"] >= snapshot["latency_p50"]
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=recorder, args=(worker,))
            for worker in range(THREADS)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        final = metrics.snapshot()
        assert final["submitted"] == THREADS * ITERATIONS
        assert final["completed"] + final["failed"] == THREADS * ITERATIONS
        assert len(metrics._latencies) == LATENCY_WINDOW
