"""Remote text-source transport: a simulated network between gateway and server.

The reproduction's loose integration becomes *physically* loose here: a
wire protocol (:mod:`~repro.remote.codec`), a fault-injecting channel
with named link profiles (:mod:`~repro.remote.channel`), a resilience
layer of retries and circuit breaking
(:mod:`~repro.remote.resilience`), and a pooled transport implementing
the full text-server API over frames
(:mod:`~repro.remote.transport`).  A transport stands in for the server
behind a metered client::

    from repro.remote import RemoteTextTransport

    client = TextClient(RemoteTextTransport(server, profile="flaky", seed=7))

With no transport in place, nothing here runs and the gateway's cost
accounting stays bit-identical to the in-process reproduction.
"""

from repro.remote.channel import (
    FAULT_PROFILES,
    ChannelStats,
    FaultInjectingChannel,
    FaultProfile,
    LoopbackChannel,
)
from repro.remote.codec import (
    decode_request,
    decode_response,
    document_from_wire,
    document_to_wire,
    encode_error,
    encode_request,
    encode_response,
    node_from_wire,
    node_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.remote.endpoint import TextServerEndpoint, resolve_remote_error
from repro.remote.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
)
from repro.remote.router import (
    MergedServerCounters,
    ShardBackend,
    ShardedTextTransport,
    build_sharded_transport,
)
from repro.remote.transport import (
    RemoteTextTransport,
    TransportEvent,
    TransportStats,
)

__all__ = [
    "FaultProfile",
    "FAULT_PROFILES",
    "ChannelStats",
    "LoopbackChannel",
    "FaultInjectingChannel",
    "node_to_wire",
    "node_from_wire",
    "document_to_wire",
    "document_from_wire",
    "result_to_wire",
    "result_from_wire",
    "encode_request",
    "decode_request",
    "encode_response",
    "encode_error",
    "decode_response",
    "TextServerEndpoint",
    "resolve_remote_error",
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "RemoteTextTransport",
    "TransportEvent",
    "TransportStats",
    "ShardBackend",
    "MergedServerCounters",
    "ShardedTextTransport",
    "build_sharded_transport",
]
