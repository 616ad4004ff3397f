"""Wire-codec round trips: every node type, documents, results, frames."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import RemoteProtocolError
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
    render_payload,
    result_from_wire,
    result_to_wire,
)
from repro.textsys.documents import Document
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    TermQuery,
    TruncatedQuery,
)
from repro.textsys.result import ResultSet
from repro.textsys.vector import VectorQuery

NODES = [
    TermQuery("title", "belief"),
    PhraseQuery("title", ("belief", "update")),
    TruncatedQuery("author", "grav"),
    ProximityQuery("abstract", "belief", "update", 3),
    AndQuery((TermQuery("title", "belief"), TermQuery("author", "gravano"))),
    OrQuery((TermQuery("title", "a"), TermQuery("title", "b"))),
    NotQuery(TermQuery("title", "unwanted")),
    AndQuery(
        (
            OrQuery((TermQuery("title", "a"), PhraseQuery("title", ("b", "c")))),
            NotQuery(TruncatedQuery("author", "sm")),
        )
    ),
]


class TestNodeRoundTrip:
    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_round_trip_preserves_node(self, node):
        wire = node_to_wire(node)
        back = node_from_wire(wire)
        assert back == node
        assert back.to_expression() == node.to_expression()
        assert back.term_count() == node.term_count()

    def test_unknown_type_rejected(self):
        with pytest.raises(RemoteProtocolError):
            node_from_wire({"type": "regex", "pattern": ".*"})

    def test_missing_keys_rejected(self):
        with pytest.raises(RemoteProtocolError):
            node_from_wire({"type": "term", "field": "title"})

    def test_unencodable_node_rejected(self):
        with pytest.raises(RemoteProtocolError):
            node_to_wire("TI='belief'")  # strings are parsed upstream


# A recursive strategy mirroring the expression grammar (normalized
# words only: the node constructors reject anything tokenize() changes).
_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_fields = st.sampled_from(["title", "author", "abstract", "year"])
_leaves = st.one_of(
    st.builds(TermQuery, _fields, _words),
    st.builds(
        PhraseQuery,
        _fields,
        st.lists(_words, min_size=2, max_size=4).map(tuple),
    ),
    st.builds(TruncatedQuery, _fields, _words),
    st.builds(
        ProximityQuery, _fields, _words, _words, st.integers(min_value=1, max_value=9)
    ),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(AndQuery, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(OrQuery, st.lists(children, min_size=2, max_size=3).map(tuple)),
        st.builds(NotQuery, children),
    ),
    max_leaves=12,
)


@given(_trees)
def test_arbitrary_trees_round_trip(node):
    back = node_from_wire(node_to_wire(node))
    assert back == node
    assert back.to_expression() == node.to_expression()


_vectors = st.builds(
    VectorQuery,
    _fields,
    st.lists(_words, min_size=1, max_size=4).map(tuple),
    top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
    threshold=st.floats(min_value=-1.0, max_value=1.0),
)


@given(st.one_of(_trees, _vectors), st.integers(min_value=0, max_value=2**62))
def test_spliced_frames_are_byte_identical(node, frame_id):
    """A spliced frame — around a pre-rendered payload or a dict — is
    ``json.dumps`` of the whole frame, byte for byte, and decodes to the
    node."""
    payload = {"query": node_to_wire(node)}
    whole = json.dumps({"id": frame_id, "op": "search", "payload": payload})
    spliced = encode_request(frame_id, "search", render_payload(payload))
    assert spliced == whole
    assert encode_request(frame_id, "search", payload) == whole
    assert decode_request(spliced) == (frame_id, "search", payload)
    assert node_from_wire(decode_request(spliced)[2]["query"]) == node


class TestDocumentAndResult:
    def test_document_round_trip(self):
        document = Document("d7", {"title": "belief update", "year": "may 1993"})
        back = document_from_wire(document_to_wire(document))
        assert back.docid == document.docid
        assert dict(back.fields) == dict(document.fields)

    def test_result_round_trip(self):
        result = ResultSet(
            docids=("d1", "d3"),
            documents=(
                Document("d1", {"title": "one"}),
                Document("d3", {"title": "three"}),
            ),
            postings_processed=17,
        )
        back = result_from_wire(result_to_wire(result))
        assert back.docids == result.docids
        assert back.postings_processed == result.postings_processed
        assert [d.docid for d in back.documents] == ["d1", "d3"]

    def test_malformed_document_rejected(self):
        with pytest.raises(RemoteProtocolError):
            document_from_wire({"fields": {}})

    def test_malformed_result_rejected(self):
        with pytest.raises(RemoteProtocolError):
            result_from_wire({"docids": ["d1"]})


class TestFrames:
    def test_request_round_trip(self):
        frame = encode_request(5, "search", {"query": {"type": "term"}})
        assert decode_request(frame) == (5, "search", {"query": {"type": "term"}})

    def test_success_response_round_trip(self):
        frame = encode_response(9, {"result": []})
        assert decode_response(frame) == (9, True, {"result": []})

    def test_error_response_round_trip(self):
        frame = encode_error(4, "SearchLimitExceeded", "too many terms")
        frame_id, ok, error = decode_response(frame)
        assert (frame_id, ok) == (4, False)
        assert error == {"type": "SearchLimitExceeded", "message": "too many terms"}

    def test_garbage_frames_rejected(self):
        with pytest.raises(RemoteProtocolError):
            decode_request("not json")
        with pytest.raises(RemoteProtocolError):
            decode_response("{}")

    def test_unencodable_payload_rejected(self):
        with pytest.raises(RemoteProtocolError):
            encode_request(1, "search", {"query": object()})
        with pytest.raises(RemoteProtocolError):
            render_payload({"query": object()})

    def test_spliced_op_names_are_escaped_like_json(self):
        payload = render_payload({"docid": "d\u00e9"})
        for op in ("search", 'we"ird', "caf\u00e9"):
            assert encode_request(3, op, payload) == json.dumps(
                {"id": 3, "op": op, "payload": {"docid": "d\u00e9"}}
            )
