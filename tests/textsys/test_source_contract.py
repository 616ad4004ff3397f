"""The ``TextSource`` contract: one body, every implementation.

Each case stands one implementation up over the same four documents and
is checked against a plain in-process server of the same kind.  The
second half is ROADMAP item 2's acceptance test in miniature: a source
written here, with nothing but the contract members, joins through the
client, the wire and the serving layer without an edit under ``src/``.
"""

from typing import Any, Callable, List, NamedTuple, Optional

import pytest

from repro.core.joinmethods import JoinContext, TupleSubstitution
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import SearchLimitExceeded, TextSystemError
from repro.gateway.client import TextClient
from repro.remote.channel import LoopbackChannel
from repro.remote.endpoint import TextServerEndpoint
from repro.remote.router import build_sharded_transport
from repro.remote.transport import RemoteTextTransport
from repro.serving import QueryService, TenantSpec
from repro.textsys.diskindex import DiskInvertedIndex, build_disk_index
from repro.textsys.engine import matches_document
from repro.textsys.parser import parse_search
from repro.textsys.result import ResultSet
from repro.textsys.server import BooleanTextServer
from repro.textsys.source import DEFAULT_BATCH_LIMIT
from repro.textsys.vector import VectorQuery
from repro.textsys.vectorserver import VectorTextServer
from repro.workload.scenarios import Scenario

#: Small enough that a four-term search is over the limit.
TERM_LIMIT = 3

BOOLEAN_QUERIES = ["TI='belief'", "AU='gravano'", "TI='systems' and AB='filtering'"]
BOOLEAN_OVER_LIMIT = "TI='a' and TI='b' and TI='c' and TI='d'"
VECTOR_QUERIES = [
    VectorQuery("title", ("belief", "update")),
    VectorQuery("title", ("systems",), top_k=2),
    VectorQuery("title", ("zzz",)),
]
VECTOR_OVER_LIMIT = VectorQuery("title", ("a", "b", "c", "d"))


class Case(NamedTuple):
    source: Any
    reference: Any  # the plain in-process server it must agree with
    batch_limit: Optional[int]
    queries: List[Any]
    over_limit: Any
    mutate: Callable[[], None]
    close: Callable[[], None] = lambda: None


def _new_document(store):
    store.add_record("d9", title="belief", author="x", abstract="y", year="1999")


def _boolean(store, tmp_path):
    server = BooleanTextServer(store, term_limit=TERM_LIMIT)
    return server, None, lambda: _new_document(store)


def _boolean_batching(store, tmp_path):
    server = BooleanTextServer(store, term_limit=TERM_LIMIT, batch_limit=2)
    return server, 2, lambda: _new_document(store)


def _boolean_on_disk(store, tmp_path):
    path = build_disk_index(
        store, store.field_names, tmp_path / "corpus.ridx", version=store.version
    )
    index = DiskInvertedIndex(path)
    server = BooleanTextServer(store, term_limit=TERM_LIMIT, index=index)
    return server, None, lambda: _new_document(store), index.close


def _vector(store, tmp_path):
    server = VectorTextServer(store, "title", term_limit=TERM_LIMIT)
    return server, None, lambda: _new_document(store)


def _remote(store, tmp_path):
    transport = RemoteTextTransport(
        BooleanTextServer(store, term_limit=TERM_LIMIT), profile="lan", time_scale=0.0
    )
    return transport, DEFAULT_BATCH_LIMIT, lambda: _new_document(store), transport.close


def _channel_only(store, tmp_path):
    endpoint = TextServerEndpoint(BooleanTextServer(store, term_limit=TERM_LIMIT))
    transport = RemoteTextTransport(channel=LoopbackChannel(endpoint.handle))
    return transport, DEFAULT_BATCH_LIMIT, lambda: _new_document(store)


def _sharded(server):
    transport = build_sharded_transport(server, 3, profile="lan", time_scale=0.0)
    return (
        transport,
        DEFAULT_BATCH_LIMIT,
        lambda: _new_document(transport.corpus.stores[0]),
        transport.close,
    )


def _sharded_boolean(store, tmp_path):
    return _sharded(BooleanTextServer(store, term_limit=TERM_LIMIT))


def _sharded_vector(store, tmp_path):
    return _sharded(VectorTextServer(store, "title", term_limit=TERM_LIMIT))


BUILDERS = [
    _boolean,
    _boolean_batching,
    _boolean_on_disk,
    _vector,
    _remote,
    _channel_only,
    _sharded_boolean,
    _sharded_vector,
]


@pytest.fixture(params=BUILDERS, ids=lambda builder: builder.__name__.lstrip("_"))
def case(request, tiny_store, tmp_path):
    source, batch_limit, mutate, *close = request.param(tiny_store, tmp_path)
    if "vector" in request.param.__name__:
        reference = VectorTextServer(tiny_store, "title", term_limit=TERM_LIMIT)
        queries, over_limit = VECTOR_QUERIES, VECTOR_OVER_LIMIT
    else:
        reference = BooleanTextServer(tiny_store, term_limit=TERM_LIMIT)
        queries, over_limit = BOOLEAN_QUERIES, BOOLEAN_OVER_LIMIT
    built = Case(source, reference, batch_limit, queries, over_limit, mutate, *close)
    yield built
    built.close()


def _same_answer(result, expected):
    assert result.docids == expected.docids
    assert result.postings_processed == expected.postings_processed
    assert result.scores == pytest.approx(expected.scores)
    assert [d.fields for d in result.documents] == [
        d.fields for d in expected.documents
    ]


class TestContract:
    def test_capability_record(self, case):
        source, reference = case.source, case.reference
        assert source.source_kind == reference.source_kind
        assert source.document_count == reference.document_count == 4
        assert source.term_limit == reference.term_limit == TERM_LIMIT
        assert source.field_names == reference.field_names
        assert source.short_fields == reference.short_fields
        assert source.batch_limit == case.batch_limit
        assert reference.batch_limit is None  # a plain server is Mercury

    def test_search_and_document_frequency(self, case):
        for query in case.queries:
            _same_answer(case.source.search(query), case.reference.search(query))
        assert case.source.document_frequency("title", "belief") == 2

    def test_search_batch_keeps_correspondence(self, case):
        if case.batch_limit is None:
            with pytest.raises(TextSystemError, match="batch"):
                case.source.search_batch(case.queries[:1])
            return
        batch = (case.queries * case.batch_limit)[: case.batch_limit]
        answers = case.source.search_batch(batch)
        assert len(answers) == len(batch)
        for query, answer in zip(batch, answers):
            _same_answer(answer, case.reference.search(query))

    def test_search_batch_rejects_empty_and_oversized(self, case):
        with pytest.raises(TextSystemError, match="at least one"):
            case.source.search_batch([])
        if case.batch_limit is not None:
            with pytest.raises(TextSystemError, match="exceeds the limit"):
                case.source.search_batch(
                    [case.queries[0]] * (case.batch_limit + 1)
                )

    def test_retrieve_many_keeps_order(self, case):
        wanted = ["d3", "d1", "d4", "d2", "d1"]
        documents = case.source.retrieve_many(wanted)
        assert [document.docid for document in documents] == wanted
        assert documents[0].fields == case.reference.retrieve("d3").fields
        assert case.source.retrieve("d2").fields == documents[3].fields

    def test_term_limit_raises_search_limit_exceeded(self, case):
        with pytest.raises(SearchLimitExceeded):
            case.source.search(case.over_limit)
        if case.batch_limit is not None:
            with pytest.raises(SearchLimitExceeded):
                case.source.search_batch([case.over_limit])

    def test_version_and_fingerprint_move_on_mutation(self, case):
        version = case.source.data_version
        fingerprint = case.source.data_fingerprint
        assert case.source.data_fingerprint == fingerprint  # stable while idle
        case.mutate()
        assert case.source.data_version == version + 1
        assert case.source.data_fingerprint != fingerprint

    def test_drain_accounting_shape(self, case):
        case.source.search(case.queries[0])
        wasted, events = case.source.drain_accounting()
        assert isinstance(wasted, float)
        assert isinstance(events, (list, tuple))
        wasted, events = case.source.drain_accounting()  # draining clears
        assert wasted == 0.0 and len(events) == 0


# ----------------------------------------------------------------------
# a source that is nothing but the contract
# ----------------------------------------------------------------------
class DictSource:
    """The contract members over a dict of documents: no store, no index."""

    source_kind = "boolean"
    term_limit = 70
    batch_limit = None
    data_version = 1
    data_fingerprint = ("dict-source", 1)

    def __init__(self, documents, field_names, short_fields):
        self._documents = {document.docid: document for document in documents}
        self.field_names = tuple(field_names)
        self.short_fields = tuple(short_fields)
        self.document_count = len(self._documents)

    def search(self, query):
        node = parse_search(query) if isinstance(query, str) else query
        hits = [d for d in self._documents.values() if matches_document(d, node)]
        return ResultSet(
            docids=tuple(d.docid for d in hits),
            documents=tuple(d.short_form(self.short_fields) for d in hits),
            postings_processed=self.document_count,
        )

    def search_batch(self, queries):
        raise TextSystemError("this text source takes no batched invocations")

    def retrieve(self, docid):
        return self._documents[docid]

    def retrieve_many(self, docids):
        return [self.retrieve(docid) for docid in docids]

    def document_frequency(self, field, term):
        return len(self.search(f"{field}='{term}'"))

    def drain_accounting(self):
        return 0.0, ()


QUERY = TextJoinQuery(
    relation="student",
    join_predicates=(TextJoinPredicate("student.name", "author"),),
    text_selections=(TextSelection("belief update", "title"),),
)


@pytest.fixture
def dict_source(tiny_store):
    return DictSource(tiny_store, tiny_store.field_names, tiny_store.short_fields)


@pytest.fixture
def expected_rows(tiny_context):
    rows = TupleSubstitution().execute(QUERY, tiny_context).result_keys()
    assert rows
    return rows


class TestContractOnlySource:
    def test_joins_through_the_client(self, dict_source, tiny_catalog, expected_rows):
        context = JoinContext(tiny_catalog, TextClient(dict_source))
        execution = TupleSubstitution().execute(QUERY, context)
        assert execution.result_keys() == expected_rows
        assert execution.cost.searches > 0

    def test_joins_across_the_wire(self, dict_source, tiny_catalog, expected_rows):
        endpoint = TextServerEndpoint(dict_source)
        transport = RemoteTextTransport(channel=LoopbackChannel(endpoint.handle))
        assert transport.field_names == dict_source.field_names
        assert transport.batch_limit == DEFAULT_BATCH_LIMIT
        context = JoinContext(tiny_catalog, TextClient(transport))
        execution = TupleSubstitution().execute(QUERY, context)
        assert execution.result_keys() == expected_rows

    def test_joins_under_the_serving_layer(
        self, dict_source, tiny_catalog, tiny_server, expected_rows
    ):
        scenario = Scenario(catalog=tiny_catalog, server=tiny_server)
        searches = tiny_server.counters.searches
        with QueryService(
            scenario, [TenantSpec("t")], workers=1, backend=dict_source
        ) as service:
            execution = service.submit("t", QUERY, TupleSubstitution()).result(
                timeout=30
            )
        assert execution.result_keys() == expected_rows
        assert tiny_server.counters.searches == searches  # the backend served it
