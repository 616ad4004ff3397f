"""The server side of the wire: decode frames, run the text server.

:class:`TextServerEndpoint` is what would run *next to* Mercury: it
receives one request frame (a JSON string), dispatches it to the wrapped
:class:`~repro.textsys.source.TextSource`, and encodes the answer (or
the server-side exception) as a response frame.  Its ``meta`` frame
carries the source's whole published capability record, so the client
side of the wire never needs the in-process object.

Server-side exceptions do not tear down the link: they travel back as
typed error frames and are re-raised client-side as the same
:mod:`repro.errors` class (``SearchLimitExceeded`` on the client means
exactly what it means in-process).  Only transport faults — injected by
the channel, never by this endpoint — surface as
:class:`~repro.errors.TransportError`.

Dispatch into the underlying server is serialised with a lock: the
in-process server mutates usage counters and is not thread-safe, while
the connection pool sends frames concurrently.  The lock is held only
for index evaluation — simulated wire latency is paid in the channel,
outside the lock — so concurrent dispatch still overlaps the expensive
part of a remote call.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Tuple

import repro.errors as errors_module
from repro.errors import RemoteProtocolError, ReproError
from repro.remote.codec import (
    decode_request,
    document_to_wire,
    encode_error,
    encode_response,
    node_from_wire,
    result_to_wire,
)

__all__ = ["TextServerEndpoint", "resolve_remote_error"]


def resolve_remote_error(error_type: str, message: str) -> ReproError:
    """Map a wire error frame back to the library exception it encodes."""
    exception_class = getattr(errors_module, error_type, None)
    if isinstance(exception_class, type) and issubclass(exception_class, ReproError):
        return exception_class(message)
    return RemoteProtocolError(f"remote {error_type}: {message}")


def _fits(payload: Any, shape: Dict[str, Tuple[type, ...]]) -> bool:
    """Does ``payload`` carry every key of ``shape`` with its type?  A
    ``(list, item type)`` shape types the list's items too."""
    return isinstance(payload, dict) and all(
        isinstance(payload.get(key), kind[0])
        and (len(kind) == 1 or all(isinstance(x, kind[1]) for x in payload[key]))
        for key, kind in shape.items()
    )


class TextServerEndpoint:
    """Frame-level dispatcher over an in-process text server."""

    def __init__(self, server: Any) -> None:
        self.server = server
        self._lock = threading.Lock()
        # Each op's handler and payload shape, checked before dispatch.
        self._operations: Dict[str, Tuple[Callable[..., Dict[str, Any]], Dict]] = {
            "search": (self._op_search, {"query": (dict,)}),
            "search_batch": (self._op_search_batch, {"queries": (list, dict)}),
            "retrieve": (self._op_retrieve, {"docid": (str,)}),
            "retrieve_many": (self._op_retrieve_many, {"docids": (list, str)}),
            "document_frequency": (
                self._op_document_frequency,
                {"field": (str,), "term": (str,)},
            ),
            "meta": (self._op_meta, {}),
        }

    # ------------------------------------------------------------------
    # the frame handler (what the channel calls)
    # ------------------------------------------------------------------
    def handle(self, frame: str) -> str:
        """Answer one request frame; a malformed one gets an error frame."""
        frame_id, op, payload = decode_request(frame)
        if not (isinstance(op, str) and op in self._operations):
            return encode_error(frame_id, "RemoteProtocolError", f"unknown op {op!r}")
        operation, shape = self._operations[op]
        if not _fits(payload, shape):
            message = f"malformed {op} payload; it needs {sorted(shape)}"
            return encode_error(frame_id, "RemoteProtocolError", message)
        try:
            with self._lock:
                result = operation(payload)
        except ReproError as exc:
            return encode_error(frame_id, type(exc).__name__, str(exc))
        return encode_response(frame_id, result)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_search(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        result = self.server.search(node_from_wire(payload["query"]))
        return {"result": result_to_wire(result)}

    def _op_search_batch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        queries = [node_from_wire(wire) for wire in payload["queries"]]
        return {
            "results": [result_to_wire(self.server.search(query)) for query in queries]
        }

    def _op_retrieve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"document": document_to_wire(self.server.retrieve(payload["docid"]))}

    def _op_retrieve_many(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "documents": [
                document_to_wire(self.server.retrieve(docid))
                for docid in payload["docids"]
            ]
        }

    def _op_document_frequency(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "frequency": self.server.document_frequency(
                payload["field"], payload["term"]
            )
        }

    def _op_meta(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        server = self.server
        return {
            "document_count": server.document_count,
            "term_limit": server.term_limit,
            "batch_limit": server.batch_limit,
            "field_names": list(server.field_names),
            "short_fields": list(server.short_fields),
            "source_kind": server.source_kind,
            "data_version": server.data_version,
            "data_fingerprint": list(server.data_fingerprint),
        }
