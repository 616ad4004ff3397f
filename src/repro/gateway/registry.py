"""Per-backend registration and charge attribution (DESIGN invariant 15).

One optimizer, several external text sources: each backend has its own
calibrated cost constants (``c_i, c_p, c_s, c_l, c_a``) and therefore
its own :class:`~repro.gateway.costs.CostLedger`.  The
:class:`BackendRegistry` is where a deployment declares its sources:

    registry = BackendRegistry()
    registry.register("mercury", boolean_server)           # paper defaults
    registry.register("vsim", vector_server)               # vector defaults
    client = registry.client("vsim", tracer=tracer)        # charges vsim only

**Invariant 15 (per-backend charge attribution).**  Every foreign call
issued through ``registry.client(name)`` charges *that* backend's ledger
with *that* backend's constants, and no other's; the registry-wide
``total()`` is exactly the sum of the per-backend ledger totals.  The
attribution is independent of transport (in-process, remote, sharded)
and engine mode, because each ledger's counts are the integer work
measures DESIGN invariants 10–13 already pin bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.errors import GatewayError
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.costs import VECTOR_CONSTANTS, CostConstants, CostLedger
from repro.gateway.tracing import CallTracer

__all__ = ["BackendBinding", "BackendRegistry"]


@dataclass
class BackendBinding:
    """One registered external source: server + constants + its ledger."""

    name: str
    server: Any
    constants: CostConstants
    ledger: CostLedger

    @property
    def source_kind(self) -> str:
        """The backend's predicate semantics (``"boolean"``/``"vector"``)."""
        return self.server.source_kind

    def __repr__(self) -> str:
        return (
            f"BackendBinding({self.name!r}, kind={self.source_kind}, "
            f"total={self.ledger.total:.3f}s)"
        )


class BackendRegistry:
    """Named external text sources with per-backend cost attribution."""

    def __init__(self) -> None:
        self._bindings: Dict[str, BackendBinding] = {}

    def register(
        self,
        name: str,
        server: Any,
        constants: Optional[CostConstants] = None,
    ) -> BackendBinding:
        """Declare one backend; its ledger prices with its constants.

        When ``constants`` is omitted, the backend's published
        ``source_kind`` picks the calibrated defaults: the paper's
        Boolean constants, or :data:`~repro.gateway.costs.
        VECTOR_CONSTANTS` for a ranking source.
        """
        if not name:
            raise GatewayError("a backend needs a non-empty name")
        if name in self._bindings:
            raise GatewayError(f"backend {name!r} is already registered")
        if constants is None:
            ranked = server.source_kind == "vector"
            constants = VECTOR_CONSTANTS if ranked else CostConstants()
        binding = BackendBinding(
            name=name,
            server=server,
            constants=constants,
            ledger=CostLedger(constants=constants),
        )
        self._bindings[name] = binding
        return binding

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def binding(self, name: str) -> BackendBinding:
        try:
            return self._bindings[name]
        except KeyError:
            raise GatewayError(
                f"unknown backend {name!r}; registered: {sorted(self._bindings)}"
            ) from None

    def names(self) -> list:
        return list(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self) -> Iterator[BackendBinding]:
        return iter(self._bindings.values())

    def __len__(self) -> int:
        return len(self._bindings)

    # ------------------------------------------------------------------
    # the attribution surface
    # ------------------------------------------------------------------
    def client(
        self,
        name: str,
        cache: Optional[GatewayCache] = None,
        tracer: Optional[CallTracer] = None,
    ) -> TextClient:
        """A metered client whose charges land on ``name``'s ledger only."""
        binding = self.binding(name)
        return TextClient(
            binding.server,
            cache=cache,
            tracer=tracer,
            ledger=binding.ledger,
        )

    def total(self) -> float:
        """The registry-wide spend: the sum of per-backend totals."""
        return sum(binding.ledger.total for binding in self)

    def report(self) -> Dict[str, dict]:
        """Per-backend accounting reports, keyed by backend name."""
        return {
            binding.name: {
                "source_kind": binding.source_kind,
                **binding.ledger.report(),
            }
            for binding in self
        }

    def reset(self) -> None:
        for binding in self:
            binding.ledger.reset()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{binding.name}={binding.ledger.total:.3f}s" for binding in self
        )
        return f"BackendRegistry({parts})"
