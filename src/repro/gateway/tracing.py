"""Foreign-call tracing: every gateway operation becomes a span.

The paper's central claim is that foreign text-system calls dominate
query cost, so the gateway records *every* search, probe, batch,
long-form retrieval and unmetered statistics read as a :class:`CallSpan`
— what was sent, during which execution phase (scan / probe / TS /
SJ-batch / RTP), what it cost, and whether the gateway cache answered it
without touching the text system.

Phases are pushed with :meth:`CallTracer.phase` (a context
manager) by the executor and the join methods; spans inherit the
innermost active phase.  The tracer stays allocated even when disabled
so call sites never need to branch — a disabled tracer simply drops
spans.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = ["CallSpan", "CallTracer", "format_trace"]

#: Span kinds, in the order the gateway can emit them.  ``stats`` is an
#: unmetered planning read (a directory read or a statistics search).
#: The last two are transport happenings (no foreign result): a
#: retry/give-up on the remote link and a circuit-breaker state
#: transition.
SPAN_KINDS = ("search", "probe", "batch", "retrieve", "stats", "retry", "breaker")

#: The phase label spans get outside any declared phase.
UNPHASED = "-"


@dataclass(frozen=True)
class CallSpan:
    """One traced foreign call (or cache hit standing in for one)."""

    index: int
    kind: str  # "search" | "probe" | "batch" | "retrieve" | "stats" | ...
    phase: str  # "scan" | "probe" | "TS" | "SJ-batch" | "RTP" | ...
    expression: str
    result_size: int
    postings_processed: int
    cost: float  # simulated seconds actually charged
    saved: float  # simulated seconds a cache hit avoided
    cache_hit: bool

    def __repr__(self) -> str:
        hit = " HIT" if self.cache_hit else ""
        return (
            f"CallSpan(#{self.index} {self.kind}/{self.phase}{hit} "
            f"{self.expression!r} -> {self.result_size} docs, "
            f"cost={self.cost:.3f}s)"
        )


class CallTracer:
    """Records foreign-call spans with phase attribution.

    A tracer is cheap when disabled: :meth:`record` returns immediately
    and :meth:`phase` still maintains the label stack (so enabling a
    shared tracer mid-run attributes later spans correctly).

    Safe to share across threads: span emission (the index assignment
    plus the append) is atomic under an internal lock, and the phase
    stack is **per thread** — each serving worker's phases label only
    the spans that worker records, instead of bleeding into concurrent
    tenants' calls.  Single-threaded behaviour is unchanged.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[CallSpan] = []
        self._lock = threading.Lock()
        self._phases = threading.local()

    @property
    def _phase_stack(self) -> List[str]:
        stack = getattr(self._phases, "stack", None)
        if stack is None:
            stack = self._phases.stack = []
        return stack

    # ------------------------------------------------------------------
    # phase attribution
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        stack = self._phase_stack
        return stack[-1] if stack else UNPHASED

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute spans recorded inside the block to ``label``."""
        self._phase_stack.append(label)
        try:
            yield
        finally:
            self._phase_stack.pop()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        expression: str,
        result_size: int,
        postings_processed: int,
        cost: float,
        saved: float = 0.0,
        cache_hit: bool = False,
    ) -> Optional[CallSpan]:
        """Append one span (no-op while disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            # Index and append under one lock: racing emitters would
            # otherwise mint duplicate span indexes.
            span = CallSpan(
                index=len(self.spans),
                kind=kind,
                phase=self.current_phase,
                expression=expression,
                result_size=result_size,
                postings_processed=postings_processed,
                cost=cost,
                saved=saved,
                cache_hit=cache_hit,
            )
            self.spans.append(span)
        return span

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def by_phase(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase aggregate: calls, hits, cost, saved."""
        phases: Dict[str, Dict[str, Any]] = {}
        for span in list(self.spans):
            entry = phases.setdefault(
                span.phase,
                {"calls": 0, "hits": 0, "cost": 0.0, "saved": 0.0},
            )
            entry["calls"] += 1
            entry["hits"] += 1 if span.cache_hit else 0
            entry["cost"] += span.cost
            entry["saved"] += span.saved
        return phases

    def summary(self) -> Dict[str, Any]:
        """One JSON-friendly dict describing the whole trace."""
        kinds = {kind: 0 for kind in SPAN_KINDS}
        hits = 0
        cost = saved = 0.0
        spans = list(self.spans)  # stable view while emitters keep appending
        for span in spans:
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
            hits += 1 if span.cache_hit else 0
            cost += span.cost
            saved += span.saved
        return {
            "spans": len(spans),
            "by_kind": kinds,
            "cache_hits": hits,
            "cache_misses": len(spans) - hits,
            "hit_rate": hits / len(spans) if spans else 0.0,
            "cost": cost,
            "seconds_saved": saved,
            "by_phase": self.by_phase(),
        }

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"CallTracer({len(self.spans)} spans, {state})"


def format_trace(
    tracer: CallTracer, limit: Optional[int] = 20
) -> str:
    """Human-readable rendering of a trace: summary plus recent spans."""
    summary = tracer.summary()
    lines = [
        (
            f"{summary['spans']} foreign calls "
            f"({summary['cache_hits']} cache hits, "
            f"hit rate {summary['hit_rate']:.0%}), "
            f"cost {summary['cost']:.3f}s, "
            f"saved {summary['seconds_saved']:.3f}s"
        )
    ]
    for phase, entry in sorted(summary["by_phase"].items()):
        lines.append(
            f"  [{phase}] {entry['calls']} calls, {entry['hits']} hits, "
            f"cost {entry['cost']:.3f}s, saved {entry['saved']:.3f}s"
        )
    spans: Sequence[CallSpan] = tracer.spans
    shown = spans if limit is None else spans[-limit:]
    if len(shown) < len(spans):
        lines.append(f"  ... ({len(spans) - len(shown)} earlier spans elided)")
    for span in shown:
        hit = "HIT " if span.cache_hit else "    "
        lines.append(
            f"  #{span.index:<4} {span.kind:<8} {span.phase:<9} {hit}"
            f"{span.cost:8.3f}s  {span.expression}"
        )
    return "\n".join(lines)
