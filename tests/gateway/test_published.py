"""Unit tests for published text-system statistics (Section 8).

The published directory is what :func:`exact_predicate_statistics` asks
first: a one-word value costs a directory read, never a search.
"""

import pytest

from repro.errors import StatisticsError
from repro.gateway.client import TextClient
from repro.gateway.sampling import (
    exact_predicate_statistics,
    sample_predicate_statistics,
)
from repro.textsys.query import TermQuery


class TestPublishedPredicateStatistics:
    def test_single_word_values_exact(self, tiny_server):
        """The directory answer *is* the search's result size."""
        client = TextClient(tiny_server)
        values = ["radhika", "gravano", "kao"]
        frequencies = client.document_frequencies("author", values)
        assert frequencies == [
            len(tiny_server.search(TermQuery("author", value))) for value in values
        ]
        stats = exact_predicate_statistics(client, "c", "author", values)
        assert stats.selectivity == pytest.approx(2 / 3)
        assert stats.fanout == pytest.approx(sum(frequencies) / 3)

    def test_no_searches_sent(self, tiny_server):
        client = TextClient(tiny_server)
        searches = tiny_server.counters.searches
        ledger = client.ledger.snapshot()
        exact_predicate_statistics(client, "c", "author", ["radhika", "gravano"])
        assert tiny_server.counters.searches == searches
        assert client.ledger.snapshot() == ledger

    def test_phrase_values_upper_bound(self, tiny_server):
        """A phrase is not bounded from per-word frequencies but answered
        exactly, by one unmetered statistics search."""
        # "belief" and "revisited" co-occur in d3's title, but not
        # adjacently; "belief update" is a phrase of d1 and d3.
        values = ["belief revisited", "belief update"]
        client = TextClient(tiny_server)
        searches = tiny_server.counters.searches
        exact = exact_predicate_statistics(client, "c", "title", values)
        assert tiny_server.counters.searches == searches + 2
        assert client.ledger.searches == 0
        sampled = sample_predicate_statistics(
            TextClient(tiny_server), "c", "title", values, sample_size=10
        )
        assert exact == sampled
        assert (exact.selectivity, exact.fanout) == (0.5, 1.0)

    def test_unindexable_values_count_as_misses(self, tiny_server):
        stats = exact_predicate_statistics(
            TextClient(tiny_server), "c", "author", ["radhika", "???"]
        )
        assert stats.selectivity == pytest.approx(0.5)
        assert stats.sample_size == 2

    def test_empty_values_rejected(self, tiny_server):
        with pytest.raises(StatisticsError):
            exact_predicate_statistics(
                TextClient(tiny_server), "c", "author", [None]
            )
