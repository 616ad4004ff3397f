"""The simulated network link: latency, timeouts, errors and drops.

The paper's calibrated constants are dominated by the OpenODB ↔ Mercury
network link (``c_i = 3`` s per invocation is almost entirely connection
set-up).  The in-process reproduction charges those seconds into the
:class:`~repro.gateway.costs.CostLedger` without ever *being* slow or
unreliable; this module supplies the missing physical layer so the
resilience machinery has something real to push against.

A :class:`FaultInjectingChannel` carries one frame per :meth:`send`:

- **latency** — every frame sleeps ``latency ± jitter`` (scaled by
  ``time_scale`` so tests stay fast while wall-clock ratios survive);
- **transient errors** — with probability ``error_rate`` the frame is
  rejected with :class:`~repro.errors.TransportError` after its latency
  was paid (the wasted seconds ride on the exception for accounting);
- **drops** — with probability ``drop_rate`` the frame vanishes: the
  caller waits out the profile's ``timeout`` and gets
  :class:`~repro.errors.TransportTimeout`.

All randomness comes from one seeded :class:`random.Random`, so a given
seed replays the same fault sequence.  Named profiles (``lan``, ``wan``,
``flaky``, ``degraded``) bundle the parameters of links we care about.

The channel is thread-safe: random draws and statistics updates happen
under a lock; the sleeps do not, so concurrent dispatch genuinely
overlaps latency (which is what the connection pool exploits).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import GatewayError, TransportDropped, TransportError

__all__ = [
    "FaultProfile",
    "FAULT_PROFILES",
    "ChannelStats",
    "LoopbackChannel",
    "FaultInjectingChannel",
]


@dataclass(frozen=True)
class FaultProfile:
    """One named link regime: latency distribution plus fault rates.

    ``latency``/``jitter``/``timeout`` are seconds of simulated wire
    time per frame; a channel's ``time_scale`` maps them to real sleeps.
    """

    name: str
    latency: float = 0.0  # mean one-way-ish seconds per frame
    jitter: float = 0.0  # uniform extra latency in [0, jitter]
    error_rate: float = 0.0  # P(frame rejected with TransportError)
    drop_rate: float = 0.0  # P(frame vanishes -> TransportTimeout)
    timeout: float = 0.25  # seconds waited before a drop is detected

    def __post_init__(self) -> None:
        for name in ("latency", "jitter", "timeout"):
            if getattr(self, name) < 0:
                raise GatewayError(f"fault profile {name} must be non-negative")
        for name in ("error_rate", "drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise GatewayError(f"fault profile {name} must be in [0, 1]")


#: The four link regimes the benchmarks and examples exercise.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    # Same machine room: sub-millisecond, reliable.
    "lan": FaultProfile("lan", latency=0.0005, jitter=0.0002),
    # The paper's situation: a wide-area link to CMU.  Tens of
    # milliseconds per frame, still reliable.
    "wan": FaultProfile("wan", latency=0.02, jitter=0.002),
    # An unreliable link: frames error or vanish outright.
    "flaky": FaultProfile(
        "flaky",
        latency=0.002,
        jitter=0.001,
        error_rate=0.15,
        drop_rate=0.05,
        timeout=0.02,
    ),
    # A source in trouble: slow AND failing often enough to trip
    # breakers.
    "degraded": FaultProfile(
        "degraded",
        latency=0.04,
        jitter=0.01,
        error_rate=0.4,
        drop_rate=0.1,
        timeout=0.08,
    ),
}


@dataclass
class ChannelStats:
    """Observable wire behaviour, cumulative per channel."""

    frames_sent: int = 0
    frames_delivered: int = 0
    injected_errors: int = 0
    injected_drops: int = 0
    simulated_seconds: float = 0.0  # wire time at time_scale=1
    slept_seconds: float = 0.0  # real time actually slept

    def as_dict(self) -> Dict[str, Any]:
        return {
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "injected_errors": self.injected_errors,
            "injected_drops": self.injected_drops,
            "simulated_seconds": self.simulated_seconds,
            "slept_seconds": self.slept_seconds,
        }


class LoopbackChannel:
    """A perfect wire: frames go straight to the handler, no faults.

    Used as the base class so the transport can talk to any channel
    through one ``send`` method.
    """

    def __init__(self, handler: Callable[[str], str]) -> None:
        self.handler = handler
        self.stats = ChannelStats()
        self._lock = threading.Lock()

    def send(self, frame: str) -> str:
        with self._lock:
            self.stats.frames_sent += 1
            self.stats.frames_delivered += 1
        return self.handler(frame)


class FaultInjectingChannel(LoopbackChannel):
    """A seeded lossy link in front of a frame handler."""

    def __init__(
        self,
        handler: Callable[[str], str],
        profile: FaultProfile,
        seed: int = 0,
        time_scale: float = 1.0,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        if time_scale < 0:
            raise GatewayError("time_scale must be non-negative")
        super().__init__(handler)
        self.profile = profile
        self.time_scale = time_scale
        self._rng = random.Random(seed)
        self._sleep = sleeper if sleeper is not None else time.sleep

    def _pause(self, simulated_seconds: float) -> None:
        real = simulated_seconds * self.time_scale
        with self._lock:
            self.stats.simulated_seconds += simulated_seconds
            self.stats.slept_seconds += real
        if real > 0:
            self._sleep(real)

    def send(self, frame: str) -> str:
        profile = self.profile
        with self._lock:
            self.stats.frames_sent += 1
            latency = profile.latency + self._rng.uniform(0.0, profile.jitter)
            roll = self._rng.random()
        if roll < profile.drop_rate:
            # The frame vanished: the caller only learns at the deadline.
            with self._lock:
                self.stats.injected_drops += 1
            self._pause(profile.timeout)
            error = TransportDropped(
                f"frame dropped on the {profile.name!r} link "
                f"(waited {profile.timeout}s)"
            )
            error.simulated_seconds = profile.timeout
            raise error
        if roll < profile.drop_rate + profile.error_rate:
            # Transient failure after the latency was paid.
            with self._lock:
                self.stats.injected_errors += 1
            self._pause(latency)
            error = TransportError(
                f"injected transient failure on the {profile.name!r} link"
            )
            error.simulated_seconds = latency
            raise error
        self._pause(latency)
        response = self.handler(frame)
        with self._lock:
            self.stats.frames_delivered += 1
        return response
