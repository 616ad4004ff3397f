"""The client side of the wire: the text-source contract over a channel.

:class:`RemoteTextTransport` is a :class:`~repro.textsys.source.
TextSource` that drops in for the in-process server behind a
:class:`~repro.gateway.client.TextClient`: it implements every foreign
operation and the published capability record by encoding each as a
wire frame, sending it over a (typically fault-injecting) channel, and
decoding the response.  The capability record travels in the endpoint's
``meta`` frame, so a channel-only transport knows everything a caller
may ask.

On top of the bare wire it layers the resilience machinery:

- every call runs under a :class:`~repro.remote.resilience.RetryPolicy`
  (exponential backoff, optional per-call deadline) and is gated by a
  :class:`~repro.remote.resilience.CircuitBreaker`;
- batched operations are split into frames of ``batch_frame_size``
  queries and dispatched over a bounded thread pool (``pool_size``
  workers), so frame latency overlaps; a failed frame is retried alone —
  frames that already succeeded are never resent;
- wasted simulated seconds (failed attempts' wire time plus backoff
  pauses) and every retry/breaker event accumulate until the metered
  client *drains* them (:meth:`drain_accounting`) into the ledger's
  ``seconds_retried`` channel and the call trace.

Separation of concerns: the transport never touches the cost ledger
directly.  The :class:`~repro.gateway.client.TextClient` charges the
usual Section 4.1 costs from the *results* — which are identical to the
in-process results — so installing a transport changes wall-clock
behaviour and adds ``seconds_retried``, but leaves ``CostLedger.total``
bit-identical for the same answered calls.

``counters`` passes through to the wrapped in-process server: it is the
server-side usage view the reproduction's harnesses read out of band,
not part of the contract and not data that travels per call.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    CircuitOpenError,
    GatewayError,
    RemoteProtocolError,
    TransportError,
)
from repro.remote.channel import (
    FAULT_PROFILES,
    FaultInjectingChannel,
    LoopbackChannel,
)
from repro.remote.codec import (
    decode_response,
    document_from_wire,
    encode_request,
    node_to_wire,
    result_from_wire,
)
from repro.remote.endpoint import TextServerEndpoint, resolve_remote_error
from repro.remote.resilience import BREAKER_OPEN, CircuitBreaker, RetryPolicy
from repro.textsys.documents import Document
from repro.textsys.parser import parse_search
from repro.textsys.query import SearchNode
from repro.textsys.result import ResultSet
from repro.textsys.source import DEFAULT_BATCH_LIMIT, check_batch

__all__ = [
    "TransportEvent",
    "TransportStats",
    "RemoteTextTransport",
    "install_transport",
]


@dataclass(frozen=True)
class TransportEvent:
    """One traced transport happening: a retry, give-up, or breaker move."""

    kind: str  # "retry" | "breaker"
    detail: str


@dataclass
class TransportStats:
    """Cumulative transport behaviour (wall clock vs simulated waste)."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    frames_sent: int = 0
    breaker_trips: int = 0
    seconds_retried: float = 0.0  # simulated seconds wasted on failures
    wall_seconds: float = 0.0  # real time spent inside transport calls

    def as_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "attempts": self.attempts,
            "retries": self.retries,
            "failures": self.failures,
            "frames_sent": self.frames_sent,
            "breaker_trips": self.breaker_trips,
            "seconds_retried": self.seconds_retried,
            "wall_seconds": self.wall_seconds,
        }


def install_transport(client: Any, transport: "RemoteTextTransport") -> "RemoteTextTransport":
    """Point a metered client's foreign calls at a remote transport.

    After this, every ``client`` operation travels the transport's
    channel; the client automatically drains the transport's retry waste
    into ``ledger.seconds_retried`` and its events into the call trace.
    """
    client.server = transport
    return transport


class RemoteTextTransport:
    """The text-server API spoken over a frame channel with resilience."""

    def __init__(
        self,
        server: Optional[Any] = None,
        *,
        channel: Optional[LoopbackChannel] = None,
        profile: Union[str, Any] = "wan",
        seed: int = 0,
        time_scale: float = 1.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        pool_size: int = 1,
        batch_frame_size: int = 4,
        batch_limit: Optional[int] = None,
    ) -> None:
        if channel is None:
            if server is None:
                raise GatewayError("a transport needs a server or a channel")
            if isinstance(profile, str):
                try:
                    profile = FAULT_PROFILES[profile]
                except KeyError:
                    raise GatewayError(
                        f"unknown fault profile {profile!r}; "
                        f"known: {sorted(FAULT_PROFILES)}"
                    ) from None
            channel = FaultInjectingChannel(
                TextServerEndpoint(server).handle,
                profile,
                seed=seed,
                time_scale=time_scale,
            )
        if pool_size < 1:
            raise GatewayError("pool_size must be at least 1")
        if batch_frame_size < 1:
            raise GatewayError("batch_frame_size must be at least 1")
        self._server = server
        self.channel = channel
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=8, recovery_time=0.25)
        )
        self.pool_size = pool_size
        self.batch_frame_size = batch_frame_size
        self._batch_limit = batch_limit
        self.stats = TransportStats()
        self._time_scale = getattr(channel, "time_scale", 1.0)
        self._sleep = time.sleep
        self._lock = threading.Lock()
        self._frame_ids = itertools.count(1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pending_waste = 0.0
        self._pending_events: List[TransportEvent] = []
        self._transitions_seen = 0
        self._meta: Optional[Dict[str, Any]] = None

    @property
    def counters(self):
        """The wrapped server's usage counters (out of band)."""
        return self._server.counters

    @property
    def profile(self):
        """The channel's fault profile (``None`` on a bare loopback)."""
        return getattr(self.channel, "profile", None)

    # ------------------------------------------------------------------
    # published meta information: the capability record is one wire
    # call, then cached; the data version and fingerprint are always
    # fetched fresh because they are what moves
    # ------------------------------------------------------------------
    def _fetch_meta(self) -> Dict[str, Any]:
        return self._call("meta", {}, "meta")

    def _cached_meta(self) -> Dict[str, Any]:
        if self._meta is None:
            self._meta = self._fetch_meta()
        return self._meta

    @property
    def document_count(self) -> int:
        return self._cached_meta()["document_count"]

    @property
    def term_limit(self) -> int:
        return self._cached_meta()["term_limit"]

    @property
    def source_kind(self) -> str:
        return self._cached_meta()["source_kind"]

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(self._cached_meta()["field_names"])

    @property
    def short_fields(self) -> Tuple[str, ...]:
        return tuple(self._cached_meta()["short_fields"])

    @property
    def batch_limit(self) -> int:
        """The constructor's value, else the source's own, else 50.

        The endpoint answers a batch frame whatever the source behind it
        takes, so a transport always offers batched invocations.
        """
        if self._batch_limit is not None:
            return self._batch_limit
        return self._cached_meta()["batch_limit"] or DEFAULT_BATCH_LIMIT

    @property
    def data_version(self) -> int:
        return self._fetch_meta()["data_version"]

    @property
    def data_fingerprint(self):
        """The server's collision-free validation key (fetched fresh).

        Tuples travel the JSON wire as lists; they are restored here so
        the fingerprint compares equal to the in-process one.
        """
        return tuple(
            tuple(part) if isinstance(part, list) else part
            for part in self._fetch_meta()["data_fingerprint"]
        )

    # ------------------------------------------------------------------
    # the foreign operations
    # ------------------------------------------------------------------
    def search(self, query: Union[SearchNode, str]) -> ResultSet:
        if isinstance(query, str):
            query = parse_search(query)
        payload = self._call("search", {"query": node_to_wire(query)}, "search")
        return result_from_wire(payload["result"])

    def search_batch(
        self, queries: Sequence[Union[SearchNode, str]]
    ) -> List[ResultSet]:
        """Many searches, frame-split and dispatched over the pool.

        Answers come back in query order.  A frame that fails is retried
        by itself; frames that already succeeded are never resent.
        """
        parsed = [
            parse_search(query) if isinstance(query, str) else query
            for query in queries
        ]
        check_batch(len(parsed), self.batch_limit)
        frames = self._frame_split(parsed, self.batch_frame_size)

        def run(frame: List[SearchNode], position: int) -> List[ResultSet]:
            payload = self._call(
                "search_batch",
                {"queries": [node_to_wire(query) for query in frame]},
                f"search_batch#{position}",
            )
            return [result_from_wire(wire) for wire in payload["results"]]

        return [
            result for frame in self._dispatch(frames, run) for result in frame
        ]

    def retrieve(self, docid: str) -> Document:
        payload = self._call("retrieve", {"docid": docid}, "retrieve")
        return document_from_wire(payload["document"])

    def retrieve_many(self, docids: Iterable[str]) -> List[Document]:
        """Many long forms, frame-split and dispatched over the pool."""
        wanted = list(docids)
        if not wanted:
            return []
        frames = self._frame_split(wanted, self.batch_frame_size)

        def run(frame: List[str], position: int) -> List[Document]:
            payload = self._call(
                "retrieve_many",
                {"docids": frame},
                f"retrieve_many#{position}",
            )
            return [document_from_wire(wire) for wire in payload["documents"]]

        return [
            document for frame in self._dispatch(frames, run) for document in frame
        ]

    def document_frequency(self, field_name: str, term: str) -> int:
        payload = self._call(
            "document_frequency",
            {"field": field_name, "term": term},
            "document_frequency",
        )
        return payload["frequency"]

    # ------------------------------------------------------------------
    # accounting drain (pulled by the metered client)
    # ------------------------------------------------------------------
    def drain_accounting(self) -> Tuple[float, List[TransportEvent]]:
        """Hand pending waste + events to the caller, clearing them.

        The :class:`~repro.gateway.client.TextClient` calls this after
        every foreign operation: the wasted seconds land in the ledger's
        ``seconds_retried`` channel and each event becomes a traced span.
        """
        with self._lock:
            waste = self._pending_waste
            events = self._pending_events
            self._pending_waste = 0.0
            self._pending_events = []
        return waste, events

    def report(self) -> Dict[str, Any]:
        """JSON-friendly transport report: stats, channel, breaker."""
        report = self.stats.as_dict()
        report["channel"] = self.channel.stats.as_dict()
        report["breaker_state"] = self.breaker.state
        report["breaker_transitions"] = [
            f"{old} -> {new}" for _, old, new in self.breaker.transitions
        ]
        return report

    def close(self) -> None:
        """Shut the connection pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        name = getattr(self.profile, "name", "loopback")
        return (
            f"RemoteTextTransport({name}, pool={self.pool_size}, "
            f"breaker={self.breaker.state}, "
            f"retried={self.stats.seconds_retried:.3f}s)"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _frame_split(items: List[Any], size: int) -> List[List[Any]]:
        return [items[start : start + size] for start in range(0, len(items), size)]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.pool_size,
                    thread_name_prefix="repro-remote",
                )
            return self._pool

    def _dispatch(
        self,
        frames: List[Any],
        run: Callable[[Any, int], Any],
    ) -> List[Any]:
        """Run one callable per frame, concurrently when pooled."""
        if self.pool_size <= 1 or len(frames) <= 1:
            return [run(frame, position) for position, frame in enumerate(frames)]
        pool = self._ensure_pool()
        futures = [
            pool.submit(run, frame, position)
            for position, frame in enumerate(frames)
        ]
        return [future.result() for future in futures]

    def _record_event(self, kind: str, detail: str) -> None:
        with self._lock:
            self._pending_events.append(TransportEvent(kind, detail))

    def _add_waste(self, simulated_seconds: float) -> None:
        if simulated_seconds <= 0:
            return
        with self._lock:
            self._pending_waste += simulated_seconds
            self.stats.seconds_retried += simulated_seconds

    def _note_breaker(self) -> None:
        """Turn new breaker transitions into traceable events.

        The read of ``_transitions_seen``, the drain, and the cursor
        advance must form one atomic step: two pool workers racing here
        would otherwise drain the same transitions (duplicate breaker
        events) while advancing the cursor twice (losing later ones).
        """
        with self._lock:
            transitions = self.breaker.drain_transitions(self._transitions_seen)
            if not transitions:
                return
            self._transitions_seen += len(transitions)
            for _, old_state, new_state in transitions:
                if new_state == BREAKER_OPEN:
                    self.stats.breaker_trips += 1
                self._pending_events.append(
                    TransportEvent("breaker", f"{old_state} -> {new_state}")
                )

    def _pause(self, simulated_seconds: float) -> None:
        real = simulated_seconds * self._time_scale
        if real > 0:
            self._sleep(real)

    def _call(self, op: str, payload: Dict[str, Any], label: str) -> Dict[str, Any]:
        started = time.perf_counter()
        with self._lock:
            self.stats.calls += 1
        try:
            return self._call_with_retry(op, payload, label)
        finally:
            with self._lock:
                self.stats.wall_seconds += time.perf_counter() - started

    def _call_with_retry(
        self, op: str, payload: Dict[str, Any], label: str
    ) -> Dict[str, Any]:
        policy = self.retry
        attempts = 0
        elapsed = 0.0  # simulated seconds spent on this call so far
        while True:
            if not self.breaker.allow():
                self._record_event("breaker", f"{label}: refused (circuit open)")
                raise CircuitOpenError(
                    f"circuit open: {label} refused without touching the wire"
                )
            frame_id = next(self._frame_ids)
            frame = encode_request(frame_id, op, payload)
            attempts += 1
            with self._lock:
                self.stats.attempts += 1
                self.stats.frames_sent += 1
            try:
                response = self.channel.send(frame)
            except TransportError as exc:
                wasted = getattr(exc, "simulated_seconds", 0.0)
                elapsed += wasted
                self._add_waste(wasted)
                self.breaker.record_failure()
                self._note_breaker()
                if policy.exhausted(attempts, elapsed):
                    with self._lock:
                        self.stats.failures += 1
                    self._record_event(
                        "retry", f"{label}: gave up after {attempts} attempts ({exc})"
                    )
                    raise
                pause = policy.backoff(attempts)
                elapsed += pause
                self._add_waste(pause)
                with self._lock:
                    self.stats.retries += 1
                self._record_event(
                    "retry",
                    f"{label}: attempt {attempts} failed ({exc}); "
                    f"backing off {pause:.3f}s",
                )
                self._pause(pause)
                continue
            self.breaker.record_success()
            self._note_breaker()
            response_id, ok, body = decode_response(response)
            if response_id != frame_id:
                raise RemoteProtocolError(
                    f"response frame {response_id} does not match request {frame_id}"
                )
            if not ok:
                raise resolve_remote_error(body["type"], body["message"])
            return body
