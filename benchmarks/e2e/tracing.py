"""Spans recorded from outside the program, and per-layer self times.

Nothing in ``src/`` knows about this module.  The benchmark wraps what it
hands to the program (:class:`TimedSource` around a server, backend or
channel handler; :class:`TimedClient` inside a ``JoinContext``;
:class:`TimedMethod` around a join method) and, for callables the program
reaches by module-level name, swaps a span shim in for the duration of
the traced pass (:func:`installed_shims`).

A span is ``(name, start, end, parent, op)``.  ``name`` is
``"<layer>:<call>"`` where ``<layer>`` is the module path under
``repro`` (``textsys.server:search``).  Spans stay in memory until the
workload ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

now = time.perf_counter_ns

#: The op id of spans that belong to no op.
ORPHAN = -1

#: ``QueryTicket`` stamps ``time.monotonic()``; spans use
#: ``perf_counter_ns``.  Both read CLOCK_MONOTONIC on Linux, the offset
#: keeps ticket stamps comparable where they do not.
_MONOTONIC_TO_PERF_NS = int((time.perf_counter() - time.monotonic()) * 1e9)


def monotonic_to_ns(stamp: float) -> int:
    """A ``time.monotonic()`` stamp on the span clock."""
    return int(stamp * 1e9) + _MONOTONIC_TO_PERF_NS


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "value")

    def __init__(self, name: str, parent: Optional["Span"], op: int) -> None:
        self.name = name
        self.start = 0
        self.end = 0
        self.parent = parent
        self.op = op
        #: A count measured at the boundary (comparisons, frame bytes).
        self.value = 0

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]


class Tracer:
    """Collects spans; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ops = itertools.count()
        #: The span that work arriving on a thread with no open span
        #: belongs to.  The router proxy sets it around a scatter, so a
        #: shard call on a pool thread finds its parent.  Sound only
        #: while one scatter is in flight, which holds for the one
        #: closed-loop client thread of ``remote_sharded``.
        self.handoff: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self, name: str, parent: Optional[Span] = None, push: bool = True
    ) -> Span:
        """Start a span under ``parent``, else under this thread's
        innermost open span, else under the handoff span.  With none of
        the three it is an orphan (op ``ORPHAN``): work outside any op,
        such as set-up, which attribution leaves out."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.handoff
        span = Span(name, parent, parent.op if parent else ORPHAN)
        if push:
            stack.append(span)
        self.spans.append(span)
        span.start = now()
        return span

    def open_op(self, name: str, push: bool = True) -> Span:
        """Start the root span of a new op.  ``push=False`` keeps it off
        the thread's stack (the serving generator thread has one ticket
        per tenant open at once)."""
        span = Span(name, None, next(self._ops))
        if push:
            self._stack().append(span)
        self.spans.append(span)
        span.start = now()
        return span

    def close(self, span: Span) -> None:
        """End a span that :meth:`open` pushed on this thread's stack."""
        span.end = now()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None) -> Iterator[Span]:
        span = self.open(name, parent)
        try:
            yield span
        finally:
            self.close(span)

    def timed(
        self,
        function: Callable[..., Any],
        name: str,
        value_of: Optional[Callable[[tuple, Any], int]] = None,
        handoff: bool = False,
    ) -> Callable[..., Any]:
        """``function`` with a span around every call."""

        def call(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            if handoff:
                previous, self.handoff = self.handoff, span
            try:
                result = function(*args, **kwargs)
                if value_of is not None:
                    span.value = value_of(args, result)
                return result
            finally:
                if handoff:
                    self.handoff = previous
                self.close(span)

        return call

    def write(self, path: str) -> None:
        """One JSON object per span; ids are positions in the file."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": ids.get(id(span.parent)),
                            "op_id": span.op,
                            "value": span.value,
                        }
                    )
                )
                handle.write("\n")


# ----------------------------------------------------------------------
# proxies around what the benchmark hands to the program
# ----------------------------------------------------------------------
class _Proxy:
    """Times the listed calls of ``inner``; everything else passes through.

    A call the inner object lacks stays absent, because the program
    discovers capabilities with ``getattr(server, "search_batch", None)``.
    """

    def __init__(
        self,
        inner: Any,
        tracer: Tracer,
        layer: str,
        calls: Tuple[str, ...],
        handoff: bool = False,
    ) -> None:
        self._inner = inner
        for call in calls:
            target = getattr(inner, call, None)
            if target is not None:
                setattr(
                    self,
                    call,
                    tracer.timed(target, f"{layer}:{call}", handoff=handoff),
                )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TimedSource(_Proxy):
    """A text source (server, transport, router) with a span per call."""

    def __init__(
        self, inner: Any, tracer: Tracer, layer: str, handoff: bool = False
    ) -> None:
        super().__init__(
            inner,
            tracer,
            layer,
            (
                "search",
                "search_batch",
                "retrieve",
                "retrieve_many",
                "document_frequency",
            ),
            handoff=handoff,
        )


class TimedClient(_Proxy):
    """The metered ``TextClient`` with a span per foreign operation."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        super().__init__(
            inner,
            tracer,
            "gateway.client",
            ("search", "search_batch", "retrieve", "retrieve_many", "probe"),
        )


class TimedMethod:
    """A join method whose ``execute`` is a span and whose context's
    client is a :class:`TimedClient`.

    ``parent`` ties the span to its op when the method runs on another
    thread than the one that opened the op (a serving worker).
    """

    def __init__(
        self, inner: Any, tracer: Tracer, parent: Optional[Span] = None
    ) -> None:
        self._inner = inner
        self._tracer = tracer
        self._parent = parent
        self.started: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def execute(self, query: Any, context: Any) -> Any:
        tracer = self._tracer
        span = tracer.open("core.joinmethods:execute", self._parent)
        self.started = span.start
        try:
            context.client = TimedClient(context.client, tracer)
            return self._inner.execute(query, context)
        finally:
            tracer.close(span)


# ----------------------------------------------------------------------
# shims for callables the program reaches by module-level name
# ----------------------------------------------------------------------
def _codec_frame_bytes(args: tuple, result: Any) -> int:
    if isinstance(result, str):
        return len(result)  # encode_*: the frame produced
    frame = args[0] if args else None
    return len(frame) if isinstance(frame, str) else 0  # decode_*: consumed


def _rtp_comparisons(args: tuple, result: Any) -> int:
    # rtp_match_pairs(context, documents, rows, predicates)
    return len(args[1]) * len(args[2])


def _shim_targets() -> List[Tuple[Any, str, str, Optional[Callable[[tuple, Any], int]]]]:
    """(module, attribute, span name, value function) for every shim."""
    import repro.core.joinmethods.probing as probing
    import repro.core.joinmethods.rtp as rtp
    import repro.core.joinmethods.semijoin as semijoin
    import repro.remote.codec as wire_codec
    import repro.remote.endpoint as endpoint
    import repro.remote.transport as transport
    import repro.textsys.diskindex.reader as reader

    targets: List[Tuple[Any, str, str, Optional[Callable[[tuple, Any], int]]]] = []
    for module in (rtp, semijoin, probing):
        targets.append(
            (module, "rtp_match_pairs", "core.textmatch:rtp_match_pairs", _rtp_comparisons)
        )
    # Every wire-codec function the two ends of the link imported by
    # name: the frame encoders/decoders and the per-object converters
    # they are fed with.
    for module in (transport, endpoint):
        for name, value in sorted(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == wire_codec.__name__:
                is_frame = name.startswith(("encode_", "decode_"))
                targets.append(
                    (
                        module,
                        name,
                        f"remote.codec:{name}",
                        _codec_frame_bytes if is_frame else None,
                    )
                )
    for name in ("decode_block_docs", "decode_block_positions"):
        targets.append((reader, name, f"textsys.diskindex:{name}", None))
    return targets


@contextmanager
def installed_shims(tracer: Tracer) -> Iterator[None]:
    """Swap the span shims in; always swap the originals back."""
    originals = []
    try:
        for module, attribute, name, value_of in _shim_targets():
            original = getattr(module, attribute)
            originals.append((module, attribute, original))
            setattr(module, attribute, tracer.timed(original, name, value_of))
        yield
    finally:
        for module, attribute, original in originals:
            setattr(module, attribute, original)


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _subtract(start: int, end: int, covers: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``[start, end)`` minus the union of ``covers``."""
    pieces = []
    cursor = start
    for cover_start, cover_end in sorted(covers):
        cover_start = max(cover_start, start)
        cover_end = min(cover_end, end)
        if cover_end <= cursor:
            continue
        if cover_start > cursor:
            pieces.append((cursor, cover_start))
        cursor = cover_end
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def self_times(spans: List[Span]) -> Dict[str, int]:
    """Nanoseconds of self time per span name, summed over all ops.

    A span's self time is its interval minus the union of its children's
    intervals.  Where self intervals of one op overlap — shard calls
    running on pool threads at the same moment — each of the ``m`` spans
    active in a stretch gets ``1/m`` of it, so the names of one op sum to
    the op's root span exactly and parallel work is not counted twice.
    """
    children: Dict[int, List[Span]] = {}
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        if span.op == ORPHAN:
            continue
        by_op.setdefault(span.op, []).append(span)
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    totals: Dict[str, float] = {}
    for op_spans in by_op.values():
        events: List[Tuple[int, int, str]] = []
        for span in op_spans:
            covers = [(c.start, c.end) for c in children.get(id(span), ())]
            for start, end in _subtract(span.start, span.end, covers):
                events.append((start, 1, span.name))
                events.append((end, -1, span.name))
        events.sort(key=lambda event: (event[0], event[1]))
        active: Dict[str, int] = {}
        count = 0
        previous = 0
        for stamp, delta, name in events:
            if count and stamp > previous:
                share = (stamp - previous) / count
                for active_name, copies in active.items():
                    if copies:
                        totals[active_name] = totals.get(active_name, 0.0) + share * copies
            previous = stamp
            active[name] = active.get(name, 0) + delta
            count += delta
    return {name: int(total) for name, total in totals.items()}
