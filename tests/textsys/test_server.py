"""Unit tests for the Boolean text server (limits, forms, counters)."""

import pytest

from repro.errors import SearchLimitExceeded, TextSystemError
from repro.textsys.query import TermQuery, or_all
from repro.textsys.server import BooleanTextServer


class TestSearch:
    def test_search_string_expression(self, tiny_server):
        result = tiny_server.search("TI='belief update'")
        assert result.docids == ("d1", "d3")

    def test_search_node(self, tiny_server):
        result = tiny_server.search(TermQuery("author", "gravano"))
        assert result.docids == ("d2",)

    def test_short_form_fields_only(self, tiny_server):
        result = tiny_server.search("TI='belief update'")
        document = result.documents[0]
        assert "abstract" not in document.fields
        assert "title" in document.fields

    def test_fail_query_is_empty(self, tiny_server):
        result = tiny_server.search("TI='zzz'")
        assert result.is_empty
        assert not result


class TestTermLimit:
    def test_limit_enforced(self, tiny_store):
        server = BooleanTextServer(tiny_store, term_limit=2)
        ok = or_all([TermQuery("title", "belief"), TermQuery("title", "text")])
        server.search(ok)
        too_many = or_all(
            [TermQuery("title", w) for w in ("belief", "text", "systems")]
        )
        with pytest.raises(SearchLimitExceeded):
            server.search(too_many)

    def test_default_limit_is_mercury(self, tiny_server):
        assert tiny_server.term_limit == 70

    def test_invalid_limit_rejected(self, tiny_store):
        with pytest.raises(TextSystemError):
            BooleanTextServer(tiny_store, term_limit=0)


class TestRetrieve:
    def test_long_form_has_all_fields(self, tiny_server):
        document = tiny_server.retrieve("d1")
        assert "abstract" in document.fields

    def test_retrieve_many(self, tiny_server):
        documents = tiny_server.retrieve_many(["d1", "d2"])
        assert [d.docid for d in documents] == ["d1", "d2"]


class TestCounters:
    def test_search_counters(self, tiny_server):
        tiny_server.search("TI='belief'")
        counters = tiny_server.counters
        assert counters.searches == 1
        assert counters.postings_processed == 2
        assert counters.short_documents == 2
        assert counters.long_documents == 0

    def test_retrieve_counter(self, tiny_server):
        tiny_server.retrieve("d1")
        assert tiny_server.counters.long_documents == 1

    def test_reset_and_snapshot(self, tiny_server):
        tiny_server.search("TI='belief'")
        snap = tiny_server.counters.snapshot()
        tiny_server.search("TI='belief'")
        assert snap.searches == 1  # a snapshot does not follow the counters
        assert tiny_server.counters.searches == 2


def test_meta_information(tiny_server):
    assert tiny_server.document_count == 4
    assert tiny_server.document_frequency("title", "belief") == 2


class TestCounterDeltas:
    def test_as_dict_declaration_order(self, tiny_server):
        tiny_server.search("TI='belief'")
        tiny_server.retrieve("d1")
        assert tiny_server.counters.as_dict() == {
            "searches": 1,
            "postings_processed": 2,
            "short_documents": 2,
            "long_documents": 1,
        }

    def test_subtraction_yields_the_delta(self, tiny_server):
        tiny_server.search("TI='belief'")
        before = tiny_server.counters.snapshot()
        tiny_server.search("TI='systems'")
        tiny_server.retrieve("d2")
        delta = tiny_server.counters - before
        assert delta.searches == 1
        assert delta.long_documents == 1
        assert delta.short_documents == tiny_server.counters.short_documents - 2

    def test_subtraction_requires_counters(self, tiny_server):
        with pytest.raises(TypeError):
            tiny_server.counters - 3

    def test_counter_delta_rows_feed_tables(self, tiny_server):
        from repro.bench.reporting import counter_delta_rows

        before = tiny_server.counters.snapshot()
        tiny_server.search("TI='belief'")
        rows = counter_delta_rows(before, tiny_server.counters)
        assert rows[0] == ["searches", 1]
        assert [name for name, _ in rows] == [
            "searches",
            "postings_processed",
            "short_documents",
            "long_documents",
        ]
