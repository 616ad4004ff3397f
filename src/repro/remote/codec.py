"""Wire-protocol JSON codecs for the remote text-source transport.

The in-process reproduction passes :class:`~repro.textsys.query.SearchNode`
trees, :class:`~repro.textsys.result.ResultSet` objects and
:class:`~repro.textsys.documents.Document` objects between the gateway
and the text server as Python objects.  A real loose integration (OpenODB
to the CMU Mercury server) serialises every call onto a network link; the
codecs here define that wire format:

- every search-expression node type round-trips through a tagged JSON
  object (``node_to_wire`` / ``node_from_wire``), preserving
  ``to_expression()`` exactly;
- documents and result sets round-trip losslessly
  (``document_to_wire`` / ``result_to_wire`` and their inverses);
- request/response **frames** wrap one operation each: a frame id for
  correlation, an op name, and the op's payload.  Batch operations carry
  many queries in one frame so that partial failures can be retried per
  frame (see :mod:`repro.remote.transport`).  A payload sent in many
  frames (one scattered search, every shard) is rendered once with
  ``render_payload`` and spliced into each frame.

Frames travel as JSON strings; nothing outside this module touches the
serialised form.  Malformed wire data raises
:class:`~repro.errors.RemoteProtocolError` rather than leaking JSON or
key errors.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Tuple, Union

from repro.errors import RemoteProtocolError
from repro.textsys.documents import Document
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    SearchNode,
    TermQuery,
    TruncatedQuery,
)
from repro.textsys.result import ResultSet
from repro.textsys.vector import VectorQuery

__all__ = [
    "node_to_wire",
    "node_from_wire",
    "document_to_wire",
    "document_from_wire",
    "result_to_wire",
    "result_from_wire",
    "render_payload",
    "encode_request",
    "decode_request",
    "encode_response",
    "encode_error",
    "decode_response",
]


# ----------------------------------------------------------------------
# search expressions
# ----------------------------------------------------------------------
def node_to_wire(node: SearchNode) -> Dict[str, Any]:
    """Serialise one search-expression node to a tagged JSON object."""
    if isinstance(node, TermQuery):
        return {"type": "term", "field": node.field, "term": node.term}
    if isinstance(node, PhraseQuery):
        return {"type": "phrase", "field": node.field, "words": list(node.words)}
    if isinstance(node, TruncatedQuery):
        return {"type": "truncated", "field": node.field, "prefix": node.prefix}
    if isinstance(node, ProximityQuery):
        return {
            "type": "proximity",
            "field": node.field,
            "left": node.left,
            "right": node.right,
            "distance": node.distance,
        }
    if isinstance(node, AndQuery):
        return {"type": "and", "operands": [node_to_wire(op) for op in node.operands]}
    if isinstance(node, OrQuery):
        return {"type": "or", "operands": [node_to_wire(op) for op in node.operands]}
    if isinstance(node, NotQuery):
        return {"type": "not", "operand": node_to_wire(node.operand)}
    if isinstance(node, VectorQuery):
        # The vector backend's query object travels the same tagged
        # frame; ``top_k=None`` (no truncation) is JSON null.
        return {
            "type": "vector",
            "field": node.field,
            "terms": list(node.terms),
            "top_k": node.top_k,
            "threshold": node.threshold,
        }
    raise RemoteProtocolError(f"cannot encode search node {type(node).__name__}")


def _typed(wire: Dict[str, Any], key: str, *kinds: type) -> Any:
    """``wire[key]``, refused unless it is one of ``kinds``."""
    value = wire[key]
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise RemoteProtocolError(
            f"search-node {key!r} must be {names}, not {type(value).__name__}"
        )
    return value


def _words(wire: Dict[str, Any], key: str) -> Tuple[str, ...]:
    """``wire[key]`` as a tuple, refused unless it is a list of strings."""
    words = _typed(wire, key, list)
    if not all(isinstance(word, str) for word in words):
        raise RemoteProtocolError(f"search-node {key!r} must hold strings only")
    return tuple(words)


def node_from_wire(wire: Dict[str, Any]) -> SearchNode:
    """Rebuild a search-expression node from its tagged JSON object.

    Every field is type-checked before the node is built, so a frame
    with a wrongly typed field is refused with a
    :class:`~repro.errors.RemoteProtocolError` instead of failing inside
    the node's validation or the index.
    """
    try:
        kind = wire["type"]
        if kind == "term":
            return TermQuery(_typed(wire, "field", str), _typed(wire, "term", str))
        if kind == "phrase":
            return PhraseQuery(_typed(wire, "field", str), _words(wire, "words"))
        if kind == "truncated":
            return TruncatedQuery(
                _typed(wire, "field", str), _typed(wire, "prefix", str)
            )
        if kind == "proximity":
            return ProximityQuery(
                _typed(wire, "field", str),
                _typed(wire, "left", str),
                _typed(wire, "right", str),
                _typed(wire, "distance", int),
            )
        if kind == "and":
            return AndQuery(tuple(node_from_wire(op) for op in wire["operands"]))
        if kind == "or":
            return OrQuery(tuple(node_from_wire(op) for op in wire["operands"]))
        if kind == "not":
            return NotQuery(node_from_wire(wire["operand"]))
        if kind == "vector":
            return VectorQuery(
                _typed(wire, "field", str),
                _words(wire, "terms"),
                top_k=_typed(wire, "top_k", int, type(None)),
                threshold=_typed(wire, "threshold", int, float),
            )
    except (KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed search-node wire object: {exc}") from exc
    raise RemoteProtocolError(f"unknown search-node type {kind!r}")


# ----------------------------------------------------------------------
# documents and result sets
# ----------------------------------------------------------------------
def document_to_wire(document: Document) -> Dict[str, Any]:
    return {"docid": document.docid, "fields": dict(document.fields)}


def document_from_wire(wire: Dict[str, Any]) -> Document:
    try:
        return Document(wire["docid"], dict(wire["fields"]))
    except (KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed document wire object: {exc}") from exc


def result_to_wire(result: ResultSet) -> Dict[str, Any]:
    wire = {
        "docids": list(result.docids),
        "documents": [document_to_wire(document) for document in result.documents],
        "postings_processed": result.postings_processed,
    }
    if result.scores:
        # Ranked results carry one score per docid; Boolean results omit
        # the key entirely (old frames stay decodable).
        wire["scores"] = list(result.scores)
    return wire


def result_from_wire(wire: Dict[str, Any]) -> ResultSet:
    try:
        return ResultSet(
            docids=tuple(wire["docids"]),
            documents=tuple(
                document_from_wire(document) for document in wire["documents"]
            ),
            postings_processed=wire["postings_processed"],
            scores=tuple(wire.get("scores", ())),
        )
    except (KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed result-set wire object: {exc}") from exc


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def render_payload(payload: Dict[str, Any]) -> str:
    """A request payload's JSON text, rendered once for many frames."""
    try:
        return json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"unencodable request payload: {exc}") from exc


def encode_request(
    frame_id: int, op: str, payload: Union[Dict[str, Any], str]
) -> str:
    """One request frame: ``{"id": n, "op": name, "payload": {...}}``.

    The payload's text — :func:`render_payload` output, or rendered
    here from a ``dict`` — is spliced into the frame as it is, so the
    frame is byte for byte what ``json.dumps`` gives for the whole
    frame (a payload is always a JSON object, never a JSON string).
    """
    if not isinstance(payload, str):
        payload = render_payload(payload)
    return '{"id": %d, "op": %s, "payload": %s}' % (
        frame_id,
        encode_basestring_ascii(op),
        payload,
    )


def decode_request(frame: str) -> Tuple[int, str, Dict[str, Any]]:
    try:
        wire = json.loads(frame)
        return wire["id"], wire["op"], wire["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed request frame: {exc}") from exc


def encode_response(frame_id: int, payload: Dict[str, Any]) -> str:
    """A success response frame, correlated by ``frame_id``."""
    try:
        return json.dumps({"id": frame_id, "ok": True, "payload": payload})
    except (TypeError, ValueError) as exc:
        raise RemoteProtocolError(f"unencodable response payload: {exc}") from exc


def encode_error(frame_id: int, error_type: str, message: str) -> str:
    """An error response frame carrying the server-side exception."""
    return json.dumps(
        {"id": frame_id, "ok": False, "error": {"type": error_type, "message": message}}
    )


def decode_response(frame: str) -> Tuple[int, bool, Dict[str, Any]]:
    """Returns ``(frame_id, ok, payload-or-error)``."""
    try:
        wire = json.loads(frame)
        if wire["ok"]:
            return wire["id"], True, wire["payload"]
        return wire["id"], False, wire["error"]
    except (ValueError, KeyError, TypeError) as exc:
        raise RemoteProtocolError(f"malformed response frame: {exc}") from exc
