"""Unit tests for the metered text client."""

import pytest

from repro.gateway.client import TextClient
from repro.gateway.tracing import CallTracer
from repro.textsys.query import TermQuery


class TestSearchAccounting:
    def test_search_charges_ledger(self, tiny_server):
        client = TextClient(tiny_server)
        result = client.search("TI='belief'")
        assert client.ledger.searches == 1
        assert client.ledger.postings_processed == result.postings_processed
        assert client.ledger.short_documents == len(result)

    def test_probe_is_a_charged_search(self, tiny_server):
        client = TextClient(tiny_server)
        assert client.probe("TI='belief'") is True
        assert client.probe("TI='zzz'") is False
        assert client.ledger.searches == 2

    def test_retrieve_charges_long_form(self, tiny_server):
        client = TextClient(tiny_server)
        client.retrieve("d1")
        assert client.ledger.long_documents == 1
        assert client.ledger.total == pytest.approx(client.ledger.constants.long_form)

    def test_retrieve_many(self, tiny_server):
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d1", "d3"])
        assert len(documents) == 2
        assert client.ledger.long_documents == 2

    def test_retrieve_many_charges_duplicates_once(self, tiny_server):
        """Regression: duplicated docids used to pay ``c_l`` per element.

        ``["d1", "d1", "d2"]`` names two distinct documents, so the
        ledger must charge exactly two long-form retrievals.
        """
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d1", "d1", "d2"])
        assert [document.docid for document in documents] == ["d1", "d2"]
        assert client.ledger.long_documents == 2
        assert client.ledger.total == pytest.approx(
            2 * client.ledger.constants.long_form
        )

    def test_retrieve_many_preserves_first_occurrence_order(self, tiny_server):
        client = TextClient(tiny_server)
        documents = client.retrieve_many(["d3", "d1", "d3", "d2", "d1"])
        assert [document.docid for document in documents] == ["d3", "d1", "d2"]
        assert client.ledger.long_documents == 3

    def test_charge_rtp(self, tiny_server):
        client = TextClient(tiny_server)
        cost = client.charge_rtp(10)
        assert cost == pytest.approx(10 * client.ledger.constants.rtp_per_document)


class TestCallLog:
    def test_log_disabled_by_default(self, tiny_server):
        client = TextClient(tiny_server)
        client.search("TI='belief'")
        assert client.tracer.spans == []

    def test_log_records_expressions(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        client.search(TermQuery("title", "belief"))
        client.search("TI='zzz'")
        first, second = client.tracer.spans
        assert first.expression == "title='belief'"
        assert first.result_size == 2
        assert second.result_size == 0


class TestStatisticsReads:
    """The two planning reads: forwarded, settled, traced, never charged."""

    def test_directory_read_is_free_and_sends_no_search(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        before = client.ledger.snapshot()
        counters = tiny_server.counters.snapshot()
        frequencies = client.document_frequencies("title", ["belief", "zzz"])
        assert frequencies == [2, 0]
        assert client.ledger.snapshot() == before
        assert tiny_server.counters.snapshot() == counters
        (span,) = client.tracer.spans
        assert (span.kind, span.result_size, span.cost) == ("stats", 2, 0.0)

    def test_statistics_search_is_a_real_search_nobody_pays_for(self, tiny_server):
        client = TextClient(tiny_server, tracer=CallTracer())
        before = client.ledger.snapshot()
        result = client.statistics_search("TI='belief'")
        assert result.docids == tiny_server.search("TI='belief'").docids
        assert client.ledger.snapshot() == before
        (span,) = client.tracer.spans
        assert (span.kind, span.expression, span.cost) == (
            "stats", "title='belief'", 0.0
        )
        assert client.tracer.summary()["by_kind"]["stats"] == 1


def test_meta_properties(tiny_server):
    client = TextClient(tiny_server)
    assert client.document_count == 4
    assert client.term_limit == 70
    assert client.batch_limit is None
    assert client.source_kind == "boolean"
    assert client.field_names == ("title", "author", "abstract", "year")
    assert client.short_fields == ("title", "author", "year")
    assert client.data_version == tiny_server.data_version
