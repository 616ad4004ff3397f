"""One workload, one process: set up, warm up, time, verify, report.

Run shape (see README.md): closed loop from one generator thread, one
untimed warm-up cycle, then whole cycles until either ``cycles`` are done
or ``seconds`` have passed.  End-to-end metrics come from a pass with
nothing installed; per-layer metrics from a second, traced pass.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import Span, Tracer, installed_shims, self_times
from workloads import WORKLOADS, Outcome, ServeWorkload, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The traced pass runs this share of a ``--cycles`` count ...
TRACED_CYCLE_SHARE = 0.25
#: ... and, of a ``--seconds`` budget, the part the untraced reference
#: pass of a traced run leaves over.
REFERENCE_SECONDS_SHARE = 1 / 3
#: Layer self times must sum to the traced op wall time this closely.
ADDITIVITY_TOLERANCE = 0.05


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class RunRecorder:
    """What a timed loop reports into.  Counts attempts and failures; keeps the first outcome of every
    distinct op for the oracle and checks every repeat against it."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.latencies_ns: List[int] = []
        self.first: Dict[str, Tuple[frozenset, float]] = {}
        self.passed: Dict[str, int] = {}
        self.billed = 0.0
        self.exec_wall_s = 0.0
        self.notes: List[str] = []

    def _same_charge(self, left: float, right: float) -> bool:
        if self.tolerance == 0.0:
            return left == right
        return math.isclose(left, right, rel_tol=self.tolerance)

    def _fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def ok(
        self,
        key: str,
        latency_ns: int,
        outcome: Outcome,
        exec_wall_s: Optional[float] = None,
    ) -> None:
        self.attempted += 1
        keys, billed, alone = outcome
        first = self.first.setdefault(key, (keys, alone))
        if first[0] != keys or not self._same_charge(first[1], alone):
            self._fail(1, f"{key}: differs from its own first run")
            return
        self.passed[key] = self.passed.get(key, 0) + 1
        self.latencies_ns.append(latency_ns)
        self.billed += billed
        if exec_wall_s is not None:
            self.exec_wall_s += exec_wall_s

    def error(self, key: str, error: BaseException) -> None:
        self.attempted += 1
        self._fail(1, f"{key}: {type(error).__name__}: {error}")

    def check_oracle(self, workload: Workload) -> None:
        """Every distinct op against the serial in-process reference."""
        for key, (keys, alone) in self.first.items():
            expected_keys, _, expected_alone = workload.oracle(key)
            if keys != expected_keys or not self._same_charge(alone, expected_alone):
                self._fail(
                    self.passed.pop(key, 0),
                    f"{key}: oracle has {len(expected_keys)} keys / "
                    f"{expected_alone!r}s, run had {len(keys)} / {alone!r}s",
                )

    @property
    def correct_ops(self) -> int:
        return sum(self.passed.values())


class _Phase:
    """One timed phase: its recorder and, per cycle, (ops that passed
    the repeat check, wall seconds, CPU seconds)."""

    def __init__(self, recorder: RunRecorder) -> None:
        self.recorder = recorder
        self.cycles: List[Tuple[int, float, float]] = []

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.cycles)

    # Medians over cycles: a burst of interference from outside the
    # process slows a few cycles of a run, not its median cycle.
    @property
    def ops_per_s(self) -> float:
        return statistics.median(ops / wall for ops, wall, _ in self.cycles)

    @property
    def cpu_ms_per_op(self) -> float:
        return statistics.median(cpu * 1e3 / max(ops, 1) for ops, _, cpu in self.cycles)


def _timed_phase(
    workload: Workload,
    seconds: Optional[float],
    cycles: Optional[int],
    after_warmup: Optional[Callable[[], None]] = None,
) -> _Phase:
    """One untimed warm-up cycle, then whole cycles until ``cycles`` are
    done or ``seconds`` have passed."""
    workload.run_cycle(RunRecorder(workload.charge_tolerance))
    if after_warmup is not None:
        after_warmup()
    recorder = RunRecorder(workload.charge_tolerance)
    phase = _Phase(recorder)
    deadline = time.perf_counter() + seconds if cycles is None else math.inf
    while True:
        ops_before = len(recorder.latencies_ns)
        cpu_started = time.process_time()
        started = time.perf_counter()
        workload.run_cycle(recorder)
        ended = time.perf_counter()
        phase.cycles.append(
            (
                len(recorder.latencies_ns) - ops_before,
                ended - started,
                time.process_time() - cpu_started,
            )
        )
        if (cycles is not None and len(phase.cycles) >= cycles) or ended >= deadline:
            return phase


def _build(name: str, seed: int, workdir: Path, tracer: Optional[Tracer]) -> Tuple[Workload, float]:
    workload = WORKLOADS[name](seed, workdir, tracer)
    started = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - started


def _result(recorder: RunRecorder, metrics: Dict[str, float], ok: bool = True) -> Dict[str, Any]:
    for note in recorder.notes:
        print(f"FAILED {note}", file=sys.stderr)
    return {
        "correct": ok and recorder.failed == 0 and recorder.correct_ops > 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
    }


def run_end_to_end(
    name: str,
    seed: int,
    workroot: Path,
    seconds: Optional[float],
    cycles: Optional[int],
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """The untraced pass: the end-to-end metrics."""
    setups = []
    workload = None
    try:
        for repeat in range(setup_repeats):
            if workload is not None:
                workload.teardown()
                workload = None
            shutil.rmtree(workroot, ignore_errors=True)
            workload, took = _build(name, seed, workroot, None)
            setups.append(took)
        phase = _timed_phase(workload, seconds, cycles)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        recorder = phase.recorder
        # After the timed phase, so the reference backend is neither in
        # peak RSS nor in any cache the timed ops read.
        recorder.check_oracle(workload)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workroot, ignore_errors=True)

    latencies = sorted(value / 1e6 for value in recorder.latencies_ns) or [0.0]
    beyond = len(latencies) - max(1, math.ceil(0.99 * len(latencies)))
    print(
        f"# {name}: {len(phase.cycles)} cycles, {recorder.attempted} ops in "
        f"{phase.wall_s:.2f}s; p99 over {len(latencies)} samples "
        f"({beyond} beyond it); failed_share "
        f"{recorder.failed / max(recorder.attempted, 1):.6f}"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
        "cpu_ms_per_op": phase.cpu_ms_per_op,
        "charged_s_per_op": recorder.billed / max(recorder.correct_ops, 1),
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(recorder, metrics)


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def run_per_layer(
    name: str,
    seed: int,
    workroot: Path,
    seconds: Optional[float],
    cycles: Optional[int],
    out: Optional[Path] = None,
) -> Dict[str, Any]:
    """An untraced reference pass, then the traced pass: per-layer metrics."""
    # (seconds, cycles) of the untraced reference pass and the traced pass
    if cycles is None:
        reference_budget = (seconds * REFERENCE_SECONDS_SHARE, None)
        traced_budget = (seconds * (1 - REFERENCE_SECONDS_SHARE), None)
    else:
        reference_budget = traced_budget = (None, max(1, round(cycles * TRACED_CYCLE_SHARE)))

    workload = None
    tracer = Tracer()
    try:
        workload, _ = _build(name, seed, workroot, None)
        reference = _timed_phase(workload, *reference_budget)
        workload.teardown()
        workload = None
        shutil.rmtree(workroot, ignore_errors=True)

        with installed_shims(tracer):
            workload, _ = _build(name, seed, workroot, tracer)
            before: Dict[str, float] = {}

            def forget_warmup() -> None:
                tracer.spans.clear()
                for samples in workload.trace_extras().values():
                    samples.clear()
                before.update(workload.counters())

            traced = _timed_phase(workload, *traced_budget, after_warmup=forget_warmup)
            after = workload.counters()
        recorder = traced.recorder
        recorder.check_oracle(workload)
        detail = dict(workload.setup_detail)
        extras = {key: list(values) for key, values in workload.trace_extras().items()}
        serving = isinstance(workload, ServeWorkload)
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workroot, ignore_errors=True)

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out / f"spans-{name}-seed{seed}.jsonl"))

    delta = {key: after[key] - before.get(key, 0) for key in after}
    metrics = layer_metrics(
        tracer.spans, recorder, delta, detail, extras, root_is_serving=serving
    )
    untraced_rate = reference.ops_per_s
    traced_rate = traced.ops_per_s
    metrics["trace.overhead_share"] = 1 - traced_rate / untraced_rate
    orphans = sum(1 for span in tracer.spans if span.op < 0)
    print(
        f"# {name}: traced {len(traced.cycles)} cycles, {recorder.attempted} ops, "
        f"{len(tracer.spans)} spans ({orphans} outside any op); untraced "
        f"{untraced_rate:.1f} ops/s, traced {traced_rate:.1f} ops/s"
    )
    additive = abs(metrics["trace.unattributed_share"]) <= ADDITIVITY_TOLERANCE
    if not additive:
        print(
            f"FAILED additivity: {metrics['trace.unattributed_share']:.4f} of the "
            f"traced op wall time is in no layer",
            file=sys.stderr,
        )
    return _result(recorder, metrics, ok=additive)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_ns(spans: List[Span]) -> float:
    return _ratio(sum(span.end - span.start for span in spans), len(spans))


def layer_metrics(
    spans: List[Span],
    recorder: RunRecorder,
    delta: Dict[str, float],
    detail: Dict[str, float],
    extras: Dict[str, List[float]],
    root_is_serving: bool,
) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    ops = max(len(recorder.latencies_ns), 1)
    wall_ns = sum(recorder.latencies_ns) or 1
    by_name: Dict[str, List[Span]] = {}
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        if span.op >= 0:
            by_name.setdefault(span.name, []).append(span)
            by_layer.setdefault(span.layer, []).append(span)

    self_by_name = self_times(spans)
    self_by_layer: Dict[str, float] = {}
    for span_name, total in self_by_name.items():
        layer = span_name.partition(":")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + total
    # Between submit and ticket done, what no inner span covers is the
    # service: admission, scheduling, worker wake-up, finish.  On the
    # other workloads the root is the benchmark's own call site.
    root_self = self_by_layer.pop("op", 0)
    if root_is_serving:
        self_by_layer["serving.service"] = self_by_layer.get("serving.service", 0) + root_self
    attributed = sum(self_by_layer.values())

    def self_ms_per_op(layer: str) -> float:
        return self_by_layer.get(layer, 0) / 1e6 / ops

    def share(layer: str) -> float:
        return self_by_layer.get(layer, 0) / wall_ns

    def named(*names: str) -> List[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def per_op(counter: str) -> float:
        return delta.get(counter, 0) / ops

    plans = named("core.optimizer:plan")
    multijoin_plans = named("core.optimizer:multijoin_plan")
    all_plans = plans + multijoin_plans
    plan_ids = {id(span) for span in all_plans}
    sampling_calls = 0
    for span in by_layer.get("textsys.server", ()):
        ancestor = span.parent
        while ancestor is not None and id(ancestor) not in plan_ids:
            ancestor = ancestor.parent
        sampling_calls += ancestor is not None

    matches = named("core.textmatch:rtp_match_pairs")
    client_calls = by_layer.get("gateway.client", ())
    encodes = named("remote.codec:encode_request", "remote.codec:encode_response")
    decodes = named("remote.codec:decode_request", "remote.codec:decode_response")
    shard_calls = [
        span
        for span in by_layer.get("remote.transport", ())
        if span.parent is not None and span.parent.layer == "remote.router"
    ]
    block_decodes = by_layer.get("textsys.diskindex", [])
    queue_waits = sorted(extras.get("serving.service.queue_wait", ()))
    search_self = sum(
        self_by_name.get(f"textsys.server:{call}", 0) for call in ("search", "search_batch")
    )
    retrieve_self = sum(
        self_by_name.get(f"textsys.server:{call}", 0) for call in ("retrieve", "retrieve_many")
    )
    build_s = detail.get("textsys.diskindex.build_s", 0.0)
    # Charged seconds of the planned method over the cheapest forced one.
    regrets = [
        alone / min(cost for key, (_, cost) in recorder.first.items() if key.startswith(qid + "/"))
        for qid, alone in (
            (key[5:], alone) for key, (_, alone) in recorder.first.items() if key.startswith("auto/")
        )
    ]

    return {
        "core.optimizer.plan_ms": _mean_ns(plans) / 1e6,
        "core.optimizer.multijoin_plan_ms": _mean_ns(multijoin_plans) / 1e6,
        "core.optimizer.sampling_calls_per_plan": _ratio(sampling_calls, len(all_plans)),
        "core.optimizer.plan_share": sum(s.end - s.start for s in all_plans) / wall_ns,
        "core.optimizer.regret": _ratio(sum(regrets), len(regrets)),
        "core.joinmethods.self_ms_per_op": self_ms_per_op("core.joinmethods"),
        "core.joinmethods.self_share": share("core.joinmethods"),
        "core.executor.q5_exec_ms": _mean_ns(named("core.executor:execute")) / 1e6,
        "core.textmatch.match_ms_per_op": self_ms_per_op("core.textmatch"),
        "core.textmatch.share": share("core.textmatch"),
        "core.textmatch.comparisons_per_op": sum(s.value for s in matches) / ops,
        "gateway.client.self_ms_per_op": self_ms_per_op("gateway.client"),
        "gateway.client.calls_per_op": len(client_calls) / ops,
        "gateway.client.self_us_per_call": _ratio(
            self_by_layer.get("gateway.client", 0) / 1e3, len(client_calls)
        ),
        "gateway.cache.hit_rate": _ratio(
            delta.get("gateway.cache.hits", 0), delta.get("gateway.cache.lookups", 0)
        ),
        "gateway.cache.coalesced_per_op": per_op("gateway.cache.coalesced"),
        "gateway.cache.evictions_per_op": per_op("gateway.cache.evictions"),
        "serving.service.submit_us": _mean_ns(named("serving.service:submit")) / 1e3,
        "serving.service.overhead_ms_per_op": (
            (wall_ns / 1e6 - recorder.exec_wall_s * 1e3) / ops if root_is_serving else 0.0
        ),
        "serving.service.queue_wait_ms_p50": (
            percentile(queue_waits, 0.5) / 1e6 if queue_waits else 0.0
        ),
        "serving.admission.rejected_share": _ratio(
            delta.get("serving.admission.rejected", 0),
            delta.get("serving.admission.submitted", 0),
        ),
        "serving.sharing.windows_per_op": per_op("serving.sharing.windows"),
        "serving.sharing.shared_searches_per_op": per_op("serving.sharing.shared_searches"),
        "serving.sharing.backend_searches_per_op": (
            per_op("textsys.server.searches") if root_is_serving else 0.0
        ),
        "remote.codec.encode_us_per_frame": _mean_ns(encodes) / 1e3,
        "remote.codec.decode_us_per_frame": _mean_ns(decodes) / 1e3,
        "remote.codec.bytes_per_frame": _ratio(sum(s.value for s in encodes), len(encodes)),
        "remote.codec.share": share("remote.codec"),
        "remote.transport.frames_per_op": per_op("remote.transport.frames"),
        "remote.transport.self_ms_per_op": self_ms_per_op("remote.transport"),
        "remote.transport.retries_per_op": per_op("remote.transport.retries"),
        "remote.endpoint.self_ms_per_op": self_ms_per_op("remote.endpoint"),
        "remote.router.self_ms_per_op": self_ms_per_op("remote.router"),
        "remote.router.scatter_wait_ms_per_op": (
            sum(span.start - span.parent.start for span in shard_calls) / 1e6 / ops
        ),
        "remote.router.failovers_per_op": per_op("remote.router.failovers"),
        "textsys.server.search_ms_per_op": search_self / 1e6 / ops,
        "textsys.server.retrieve_ms_per_op": retrieve_self / 1e6 / ops,
        "textsys.server.searches_per_op": per_op("textsys.server.searches"),
        "textsys.server.postings_per_op": per_op("textsys.server.postings"),
        "textsys.server.long_docs_per_op": per_op("textsys.server.long_docs"),
        "textsys.diskindex.block_fetches_per_op": per_op("textsys.diskindex.block_fetches"),
        "textsys.diskindex.bytes_read_per_op": per_op("textsys.diskindex.bytes_read"),
        "textsys.diskindex.cache_hit_rate": _ratio(
            delta.get("textsys.diskindex.cache_hits", 0),
            delta.get("textsys.diskindex.cache_lookups", 0),
        ),
        "textsys.diskindex.evictions_per_op": per_op("textsys.diskindex.evictions"),
        "textsys.diskindex.decode_us_per_block": _mean_ns(block_decodes) / 1e3,
        "textsys.diskindex.decode_share": share("textsys.diskindex"),
        "textsys.diskindex.build_docs_per_s": _ratio(
            detail.get("textsys.diskindex.documents", 0.0), build_s
        ),
        "textsys.diskindex.bytes_per_posting": detail.get(
            "textsys.diskindex.bytes_per_posting", 0.0
        ),
        "workload.scenario_build_s": detail.get("workload.scenario_build_s", 0.0),
        "trace.unattributed_share": 1 - attributed / wall_ns,
    }
