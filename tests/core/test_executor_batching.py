"""Batch-aware executor hot paths: probes and long-form upgrades.

Two executor paths now batch their foreign calls:

- ``_run_probe`` sends instantiated probe expressions through
  ``search_batch`` (in ``batch_limit``-sized chunks) whenever the server
  accepts multi-query invocations, and
- ``_doc_rows`` collects every document needing a long-form upgrade and
  issues ONE ``retrieve_many`` instead of one ``retrieve`` per document.

Both must be pure transport optimizations: the kept rows, the per-group
kept/dropped semantics, and the per-document ``c_l`` charges are
identical to the serial paths — only invocation counts (and wall clock,
on pooled transports) change.
"""

from repro.core.executor import execute_plan
from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.multiquery import MultiJoinQuery
from repro.core.optimizer.plan import ProbeNode, ScanNode, TextScanNode
from repro.core.query import TextJoinPredicate, TextSelection
from repro.gateway.client import TextClient
from repro.gateway.tracing import CallTracer
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer


AUTHORS = [
    "garcia",
    "gravano",
    "chaudhuri",
    "nomatch",
    "ullman",
    "widom",
]


def make_store() -> DocumentStore:
    store = DocumentStore(
        ["title", "author"], short_fields=["title", "author"]
    )
    store.add_record("d1", title="join queries", author="garcia molina")
    store.add_record("d2", title="text sources", author="gravano")
    store.add_record("d3", title="cost models", author="chaudhuri")
    store.add_record("d4", title="query plans", author="ullman")
    store.add_record("d5", title="active rules", author="widom")
    return store


def probe_fixture(server):
    """An author table probed against ``server``; returns (rows, client)."""
    catalog = Catalog()
    author = catalog.create_table(
        "author", Schema.of(("name", DataType.VARCHAR))
    )
    author.insert_many([[name] for name in AUTHORS] + [[None], ["..."]])
    query = MultiJoinQuery(
        relations=("author",),
        text_predicates=(TextJoinPredicate("author.name", "author"),),
        text_source="m",
    )
    plan = ProbeNode(
        child=ScanNode("author"),
        probe_columns=("author.name",),
        probe_predicates=(TextJoinPredicate("author.name", "author"),),
    )
    context = JoinContext(catalog, TextClient(server))
    execution = execute_plan(plan, query, context)
    names = [row["author.name"] for row in execution.rows]
    return names, context.client


SURVIVORS = ["garcia", "gravano", "chaudhuri", "ullman", "widom"]


class TestProbeBatching:
    def test_serial_fallback_on_plain_server(self):
        """A server without search_batch keeps the one-probe-per-group
        path: six indexable groups, six invocations."""
        names, client = probe_fixture(BooleanTextServer(make_store()))
        assert names == SURVIVORS
        assert client.ledger.searches == len(AUTHORS)

    def test_batched_probes_keep_identical_rows(self):
        serial_names, serial_client = probe_fixture(
            BooleanTextServer(make_store())
        )
        batched_names, batched_client = probe_fixture(
            BooleanTextServer(make_store(), batch_limit=50)
        )
        assert batched_names == serial_names
        # Same postings work travelled; only the invocation count drops.
        assert (
            batched_client.ledger.postings_processed
            == serial_client.ledger.postings_processed
        )
        assert batched_client.ledger.searches == 1
        assert batched_client.ledger.total < serial_client.ledger.total

    def test_probes_chunk_by_batch_limit(self):
        """batch_limit=4 splits six probes into ceil(6/4)=2 invocations."""
        server = BooleanTextServer(make_store(), batch_limit=4)
        names, client = probe_fixture(server)
        assert names == SURVIVORS
        assert client.ledger.searches == 2

    def test_null_and_unindexable_groups_still_cost_nothing(self):
        """The pre-probe pruning rules survive batching: NULL keys and
        unindexable values never reach the batch."""
        catalog = Catalog()
        author = catalog.create_table(
            "author", Schema.of(("name", DataType.VARCHAR))
        )
        author.insert_many([[None], ["..."], ["?!"]])
        query = MultiJoinQuery(
            relations=("author",),
            text_predicates=(TextJoinPredicate("author.name", "author"),),
            text_source="m",
        )
        plan = ProbeNode(
            child=ScanNode("author"),
            probe_columns=("author.name",),
            probe_predicates=(TextJoinPredicate("author.name", "author"),),
        )
        context = JoinContext(
            catalog, TextClient(BooleanTextServer(make_store(), batch_limit=50))
        )
        execution = execute_plan(plan, query, context)
        assert execution.rows == []
        assert context.client.ledger.searches == 0
        assert context.client.ledger.total == 0.0

    def test_probe_trace_phase_preserved(self):
        server = BooleanTextServer(make_store(), batch_limit=50)
        catalog = Catalog()
        author = catalog.create_table(
            "author", Schema.of(("name", DataType.VARCHAR))
        )
        author.insert_many([[name] for name in AUTHORS])
        query = MultiJoinQuery(
            relations=("author",),
            text_predicates=(TextJoinPredicate("author.name", "author"),),
            text_source="m",
        )
        plan = ProbeNode(
            child=ScanNode("author"),
            probe_columns=("author.name",),
            probe_predicates=(TextJoinPredicate("author.name", "author"),),
        )
        client = TextClient(server, tracer=CallTracer())
        context = JoinContext(catalog, client)
        execute_plan(plan, query, context)
        batch_spans = [
            span for span in client.tracer.spans if span.kind == "batch"
        ]
        assert batch_spans, "batched probes must still be traced"
        assert all(span.phase == "probe" for span in batch_spans)


class TestLongFormUpgradeBatching:
    """_doc_rows upgrades travel as one retrieve_many, charged per doc."""

    @staticmethod
    def hidden_field_store() -> DocumentStore:
        # 'author' is NOT a short field: every text-scan document needs a
        # long-form upgrade before author columns can be produced.
        store = DocumentStore(["title", "author"], short_fields=["title"])
        store.add_record("d1", title="alpha join", author="garcia")
        store.add_record("d2", title="alpha text", author="gravano")
        store.add_record("d3", title="alpha cost", author="chaudhuri")
        return store

    def scan_world(self, server):
        catalog = Catalog()
        catalog.create_table("author", Schema.of(("name", DataType.VARCHAR)))
        selection = TextSelection("alpha", "title")
        query = MultiJoinQuery(
            relations=("author",),
            text_predicates=(),
            text_selections=(selection,),
            text_source="m",
            long_form=True,
        )
        plan = TextScanNode(selections=(selection,))
        client = TextClient(server)
        context = JoinContext(catalog, client)
        execution = execute_plan(plan, query, context)
        return execution, client

    def test_upgrades_batch_with_identical_charges(self):
        serial_server = BooleanTextServer(self.hidden_field_store())
        execution, client = self.scan_world(serial_server)
        authors = sorted(row["m.author"] for row in execution.rows)
        assert authors == ["chaudhuri", "garcia", "gravano"]
        # One c_l per distinct upgraded document, exactly as the serial
        # retrieve loop charged.
        assert client.ledger.long_documents == 3
        assert serial_server.counters.long_documents == 3

    def test_retrieve_many_dispatches_one_server_batch(self):
        """The client forwards the distinct misses as ONE server-level
        retrieve_many (so pooled transports overlap the fetches)."""
        server = BooleanTextServer(self.hidden_field_store())
        calls = []
        original = server.retrieve_many

        def spy(docids):
            calls.append(list(docids))
            return original(docids)

        server.retrieve_many = spy
        execution, client = self.scan_world(server)
        assert len(execution.rows) == 3
        assert len(calls) == 1
        assert sorted(calls[0]) == ["d1", "d2", "d3"]
        assert client.ledger.long_documents == 3

    def test_duplicate_docids_charged_once(self):
        server = BooleanTextServer(self.hidden_field_store())
        client = TextClient(server)
        documents = client.retrieve_many(["d1", "d2", "d1", "d2", "d1"])
        assert [doc.docid for doc in documents] == ["d1", "d2"]
        assert client.ledger.long_documents == 2
        assert server.counters.long_documents == 2

    def test_batched_retrieves_match_serial_charges(self):
        batched_server = BooleanTextServer(self.hidden_field_store())
        batched = TextClient(batched_server)
        batched.retrieve_many(["d1", "d2", "d3"])

        serial_server = BooleanTextServer(self.hidden_field_store())
        serial = TextClient(serial_server)
        for docid in ["d1", "d2", "d3"]:
            serial.retrieve(docid)

        assert batched.ledger.total == serial.ledger.total
        assert (
            batched_server.counters.as_dict()
            == serial_server.counters.as_dict()
        )


class TestBatchSizeSelection:
    def test_plain_server_probes_serially(self):
        names, client = probe_fixture(BooleanTextServer(make_store()))
        assert client.ledger.searches == len(AUTHORS)
        assert names == SURVIVORS

    def test_single_probe_stays_serial_even_when_batching_exists(self):
        """One probe gains nothing from a batch invocation."""
        server = BooleanTextServer(make_store(), batch_limit=50)
        catalog = Catalog()
        author = catalog.create_table(
            "author", Schema.of(("name", DataType.VARCHAR))
        )
        author.insert_many([["garcia"]])
        query = MultiJoinQuery(
            relations=("author",),
            text_predicates=(TextJoinPredicate("author.name", "author"),),
            text_source="m",
        )
        plan = ProbeNode(
            child=ScanNode("author"),
            probe_columns=("author.name",),
            probe_predicates=(TextJoinPredicate("author.name", "author"),),
        )
        client = TextClient(server, tracer=CallTracer())
        context = JoinContext(catalog, client)
        execute_plan(plan, query, context)
        probe_spans = [
            span for span in client.tracer.spans if span.kind == "probe"
        ]
        assert len(probe_spans) == 1
        assert client.ledger.searches == 1
