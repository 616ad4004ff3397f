"""The one in-flight search table: single-flight dedupe and windowed sharing.

Section 6 factors common sub-expressions out of one query and Section 8
proposes batched invocations; this table lifts both across concurrent
callers.  Every search a :class:`~repro.gateway.client.TextClient` has
to send (a cache miss, or any search when there is no cache) becomes a
*flight* keyed by its :func:`~repro.textsys.parser.share_key`:

- a search whose key matches a flight already in the table **joins** it
  and receives that flight's answer instead of dispatching its own;
- with a zero **window** the caller that created a flight dispatches it
  at once (pure single-flight — what a :class:`~repro.gateway.cache.
  GatewayCache` carries by default);
- with a positive window, new flights collect until the window expires,
  fills up, or covers every query the ``inflight_hint`` reports; the
  caller that opened the window then sends all of them in ONE
  ``search_batch`` and fans each answer out.

The table shares **results only**.  It never sees a ledger or a tenant:
each caller gets its answers back flagged *joined* or not and settles
them in its own thread at the as-if-alone price (DESIGN invariant 16).

**Failure isolation.**  A dispatch that fails marks its flights failed;
it never hands its error to anyone else.  Every participant stranded on
a failed (or timed-out) flight re-dispatches its own searches directly,
once, without joining or leading — so a poisoned query fails only its
own caller.  The one exception is the caller whose failed dispatch held
nothing but its own searches: repeating that very call would isolate
nothing, so its error propagates as it is.

**Data versions.**  A caching client's validated data version is part of
its flight key, so a search issued under a newer version can never join
(or be cached from) a flight launched under an older one; the creator's
version-stamped cache insert runs before the flight leaves the table, in
whichever thread executed it, so a later misser finds either the flight
or the entry.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import GatewayError
from repro.textsys.parser import share_key
from repro.textsys.query import SearchNode
from repro.textsys.result import ResultSet

__all__ = ["InflightSearchTable", "SharingStats"]

#: Ceiling on how long a participant waits for a flight another thread
#: is to execute.  A landed flight sets its event at once; the bound
#: only guards against that thread dying, and running into it counts as
#: a failed flight.
_FLIGHT_TIMEOUT = 600.0

Query = Union[SearchNode, str]


class SharingStats:
    """Thread-safe counters describing what a table shared."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.windows = 0
        self.flights = 0
        self.shared_searches = 0
        self.seconds_shared = 0.0
        self.failed_dispatches = 0

    def on_window(self, flight_count: int) -> None:
        """One backend dispatch carrying ``flight_count`` distinct searches."""
        with self._lock:
            self.windows += 1
            self.flights += flight_count

    def on_failure(self) -> None:
        """One backend dispatch raised (its flights were stranded)."""
        with self._lock:
            self.failed_dispatches += 1

    def on_join(self, seconds: float) -> None:
        """A cache-less caller settled a joined search worth ``seconds``."""
        with self._lock:
            self.shared_searches += 1
            self.seconds_shared += seconds

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "windows": self.windows,
                "flights": self.flights,
                "shared_searches": self.shared_searches,
                "seconds_shared": self.seconds_shared,
                "failed_dispatches": self.failed_dispatches,
            }

    def __repr__(self) -> str:
        return (
            f"SharingStats({self.shared_searches} shared, "
            f"{self.seconds_shared:.1f}s side-channel)"
        )


class _Flight:
    """One distinct in-flight search and everyone waiting on it.

    ``result`` still ``None`` once ``event`` is set means the flight
    failed.  ``fill`` is the creator's ``(cache, cache key, version)``.
    """

    __slots__ = ("key", "query", "fill", "event", "result", "participants")

    def __init__(self, key: Tuple[str, Any], query: Query) -> None:
        self.key = key
        self.query = query
        self.fill: Optional[Tuple[Any, str, Any]] = None
        self.event = threading.Event()
        self.result: Optional[ResultSet] = None
        self.participants = 1


def _dispatch(server: Any, queries: Sequence[Query]) -> List[ResultSet]:
    """One search alone; several in ``batch_limit``-sized invocations."""
    if len(queries) == 1:
        return [server.search(queries[0])]
    limit = server.batch_limit
    if limit is None:
        return [server.search(query) for query in queries]
    results: List[ResultSet] = []
    for start in range(0, len(queries), limit):
        results.extend(server.search_batch(queries[start : start + limit]))
    return results


class InflightSearchTable:
    """Coalesces identical concurrent searches against ONE text source.

    Every client handed the same table must talk to the same server:
    whichever participant executes a window sends all of its flights
    through its own.  ``inflight_hint`` (the serving layer passes its
    admission queue's in-flight count) closes a window early once every
    executing query is already waiting in it, so a lone query never
    pays the full window.
    """

    def __init__(
        self,
        window_seconds: float = 0.0,
        max_batch: int = 16,
        inflight_hint: Optional[Callable[[], int]] = None,
    ) -> None:
        if window_seconds < 0:
            raise GatewayError("the batch window must be non-negative")
        if max_batch < 1:
            raise GatewayError("a window must hold at least one flight")
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.stats = SharingStats()
        self._inflight_hint = inflight_hint
        self._condition = threading.Condition()
        self._flights: Dict[Tuple[str, Any], _Flight] = {}
        self._window: Optional[List[_Flight]] = None

    def fetch(
        self,
        server: Any,
        queries: Sequence[Query],
        cache: Optional[Any] = None,
        cache_keys: Sequence[str] = (),
        version: Any = None,
    ) -> List[Tuple[ResultSet, bool]]:
        """Answers for ``queries``, each flagged True when it was *joined*.

        A joined answer came from a flight this call did not create (or
        from a cache entry that landed since the caller's own lookup); an
        unjoined one was dispatched on this caller's behalf.  All flights
        are created or joined under one lock hold before anything waits,
        so a batch's searches share one window instead of paying a
        window wait each.  With a ``cache`` (a :class:`~repro.gateway.
        cache.GatewayCache` already validated at ``version``; its key
        for ``queries[i]`` is ``cache_keys[i]``), every result
        dispatched for this caller is inserted version-stamped.
        """
        keys = [(share_key(query), version) for query in queries]
        entries: List[Tuple[_Flight, bool]] = []
        created: List[_Flight] = []
        window: Optional[List[_Flight]] = None
        leads = False
        with self._condition:
            for index, key in enumerate(keys):
                flight = self._flights.get(key)
                if flight is not None:
                    flight.participants += 1
                    entries.append((flight, True))
                    continue
                flight = _Flight(key, queries[index])
                if cache is not None:
                    # A flight inserts before it leaves the table, so
                    # under this lock "no flight" plus "no entry" means
                    # nobody is fetching this search.
                    flight.result = cache.search.peek(cache_keys[index])
                    if flight.result is not None:
                        flight.event.set()
                        entries.append((flight, True))
                        continue
                    flight.fill = (cache, cache_keys[index], version)
                self._flights[key] = flight
                created.append(flight)
                entries.append((flight, False))
                if self.window_seconds > 0:
                    if self._window is None:
                        self._window = []
                        leads = True
                    window = self._window
                    window.append(flight)
            self._condition.notify_all()
        if leads:
            self._execute(server, self._close(window), len(created))
        elif window is None and created:
            self._execute(server, created, len(created))
        # Otherwise another caller leads the window our flights sit in.

        outcomes: List[Tuple[Optional[ResultSet], bool]] = []
        stranded: List[int] = []
        for index, (flight, joined) in enumerate(entries):
            if not flight.event.wait(_FLIGHT_TIMEOUT):
                self._remove([flight])
            if flight.result is None:
                stranded.append(index)
            outcomes.append((flight.result, joined))
        if stranded:
            redone = _dispatch(server, [queries[index] for index in stranded])
            for index, result in zip(stranded, redone):
                if cache is not None:
                    cache.put_search(cache_keys[index], result, version)
                outcomes[index] = (result, False)
        return outcomes

    def wake(self) -> None:
        """Make an open window re-check ``inflight_hint`` now.

        The hint's owner calls this when the count drops (a query
        finished without searching into the window), so the window
        closes as soon as it covers every query still executing.
        """
        with self._condition:
            self._condition.notify_all()

    def _close(self, window: List[_Flight]) -> List[_Flight]:
        """Lead ``window``: wait until it should run, then detach it."""
        deadline = time.monotonic() + self.window_seconds
        with self._condition:
            while len(window) < self.max_batch:
                # Calling the hint under our lock is safe: admission
                # code never calls back into the table, so the
                # table-lock -> admission-lock order is one-way.
                if self._inflight_hint is not None and (
                    sum(flight.participants for flight in window)
                    >= self._inflight_hint()
                ):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
            self._window = None
        return window

    def _execute(self, server: Any, flights: List[_Flight], own: int) -> None:
        """Dispatch ``flights`` once and land every one, success or not.

        ``own`` is how many of them the executing caller created; when
        that is all of them a failure is the caller's own and propagates,
        otherwise it strands the flights and every participant (this
        caller included) falls back to its own direct dispatch.
        """
        results = None
        try:
            results = _dispatch(server, [flight.query for flight in flights])
        except Exception:
            self.stats.on_failure()
            if own == len(flights):
                raise
        finally:
            if results is not None:
                self.stats.on_window(len(flights))
                for flight, result in zip(flights, results):
                    if flight.fill is not None:
                        cache, cache_key, version = flight.fill
                        cache.put_search(cache_key, result, version)
                    flight.result = result
            self._remove(flights)
            for flight in flights:
                flight.event.set()

    def _remove(self, flights: List[_Flight]) -> None:
        with self._condition:
            for flight in flights:
                if self._flights.get(flight.key) is flight:
                    del self._flights[flight.key]

    def __repr__(self) -> str:
        return (
            f"InflightSearchTable(window={self.window_seconds * 1000:.0f}ms, "
            f"max_batch={self.max_batch}, {self.stats!r})"
        )
