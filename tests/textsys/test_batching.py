"""Unit tests for the batched-invocation interface (Section 8)."""

import pytest

from repro.errors import SearchLimitExceeded, TextSystemError
from repro.gateway.client import TextClient
from repro.gateway.tracing import CallTracer
from repro.textsys.server import BooleanTextServer


@pytest.fixture
def batching(tiny_server):
    return BooleanTextServer(tiny_server.store, batch_limit=3)


class TestServer:
    def test_answers_in_correspondence(self, batching):
        results = batching.search_batch(["TI='belief'", "AU='gravano'"])
        assert results[0].docids == ("d1", "d3")
        assert results[1].docids == ("d2",)

    def test_batch_limit_enforced(self, batching):
        queries = ["TI='belief'"] * 4
        with pytest.raises(TextSystemError, match="batch"):
            batching.search_batch(queries)

    def test_empty_batch_rejected(self, batching):
        with pytest.raises(TextSystemError):
            batching.search_batch([])

    def test_per_search_term_limit_still_applies(self, tiny_store):
        server = BooleanTextServer(tiny_store, term_limit=1, batch_limit=50)
        with pytest.raises(SearchLimitExceeded):
            server.search_batch(["TI='belief' and TI='update'"])

    def test_invalid_limit(self, tiny_server):
        with pytest.raises(TextSystemError):
            BooleanTextServer(tiny_server.store, batch_limit=0)

    def test_passthrough_operations(self, batching):
        """A batch limit adds ``search_batch``; nothing else changes."""
        assert batching.document_count == 4
        assert batching.term_limit == 70
        assert len(batching.search("TI='belief'")) == 2
        assert batching.retrieve("d1").docid == "d1"
        assert batching.document_frequency("title", "belief") == 2


class TestClientAccounting:
    def test_single_invocation_for_whole_batch(self, batching):
        client = TextClient(batching)
        results = client.search_batch(["TI='belief'", "AU='gravano'", "TI='zzz'"])
        assert len(results) == 3
        assert client.ledger.searches == 1  # one invocation!
        assert client.ledger.short_documents == 3
        assert client.ledger.postings_processed == sum(
            result.postings_processed for result in results
        )

    def test_batching_cheaper_than_individual(self, batching):
        batched = TextClient(batching)
        batched.search_batch(["TI='belief'", "AU='gravano'"])
        individual = TextClient(batching)
        individual.search("TI='belief'")
        individual.search("AU='gravano'")
        saved = individual.ledger.total - batched.ledger.total
        assert saved == pytest.approx(batched.ledger.constants.invocation)

    def test_plain_server_rejected(self, tiny_server):
        from repro.errors import GatewayError

        client = TextClient(tiny_server)
        with pytest.raises(GatewayError, match="batch"):
            client.search_batch(["TI='belief'"])

    def test_call_log_entry(self, batching):
        client = TextClient(batching, tracer=CallTracer())
        client.search_batch(["TI='belief'"])
        (span,) = client.tracer.spans
        assert (span.kind, span.expression) == ("batch", "<batch of 1>")
