"""Unit tests for sampling-based predicate statistics (Section 4.2)."""

import random

import pytest

from repro.errors import StatisticsError
from repro.gateway.client import TextClient
from repro.gateway.sampling import (
    exact_predicate_statistics,
    sample_predicate_statistics,
)


NAMES = ["radhika", "gravano", "smith", "nobody-here", "also-missing"]


class TestExactStatistics:
    def test_exact_values(self, tiny_server):
        stats = exact_predicate_statistics(
            TextClient(tiny_server), "student.name", "author", NAMES
        )
        # radhika, gravano, smith match (3 of 5); each in exactly 1 doc.
        assert stats.selectivity == pytest.approx(3 / 5)
        assert stats.fanout == pytest.approx(3 / 5)
        assert stats.sample_size == 5

    def test_duplicates_and_nulls_ignored(self, tiny_server):
        values = ["radhika", "radhika", None, "gravano"]
        stats = exact_predicate_statistics(
            TextClient(tiny_server), "student.name", "author", values
        )
        assert stats.sample_size == 2
        assert stats.selectivity == 1.0

    def test_no_values_raises(self, tiny_server):
        with pytest.raises(StatisticsError):
            exact_predicate_statistics(
                TextClient(tiny_server), "c", "author", [None]
            )


class TestSampledStatistics:
    def test_full_sample_equals_exact(self, tiny_server):
        client = TextClient(tiny_server)
        sampled = sample_predicate_statistics(
            client, "student.name", "author", NAMES, sample_size=100
        )
        exact = exact_predicate_statistics(
            client, "student.name", "author", NAMES
        )
        assert sampled.selectivity == pytest.approx(exact.selectivity)
        assert sampled.fanout == pytest.approx(exact.fanout)

    def test_full_sample_equals_exact_on_awkward_values(self, tiny_server):
        """One loop: a one-word hit, a one-word miss, a phrase, a trailing
        ``?`` (punctuation, not truncation), no indexable word, a
        duplicate and a NULL all count the same way in both modes."""
        values = [
            "gravano", "kao", "smith jones", "smith?", "???", "gravano", None,
        ]
        client = TextClient(tiny_server)
        sampled = sample_predicate_statistics(
            client, "c", "author", values, sample_size=100
        )
        exact = exact_predicate_statistics(
            TextClient(tiny_server), "c", "author", values
        )
        assert sampled == exact
        # gravano, "smith jones" and smith? (= smith) match one document
        # each; "???" is a miss nobody was asked about.
        assert (exact.sample_size, exact.selectivity, exact.fanout) == (5, 0.6, 0.6)
        assert client.ledger.searches == 4

    def test_sampling_cost_is_metered(self, tiny_server):
        """Section 4.2: sampling accesses the text system — a real cost."""
        client = TextClient(tiny_server)
        sample_predicate_statistics(
            client, "student.name", "author", NAMES, sample_size=3
        )
        assert client.ledger.searches == 3

    def test_deterministic_with_seeded_rng(self, tiny_server):
        results = []
        for _ in range(2):
            client = TextClient(tiny_server)
            stats = sample_predicate_statistics(
                client,
                "student.name",
                "author",
                NAMES,
                sample_size=3,
                rng=random.Random(5),
            )
            results.append((stats.selectivity, stats.fanout))
        assert results[0] == results[1]

    def test_invalid_sample_size(self, tiny_server):
        client = TextClient(tiny_server)
        with pytest.raises(StatisticsError):
            sample_predicate_statistics(
                client, "c", "author", NAMES, sample_size=0
            )

    def test_selectivity_in_unit_interval(self, tiny_server):
        client = TextClient(tiny_server)
        stats = sample_predicate_statistics(
            client, "student.name", "author", NAMES, sample_size=2,
            rng=random.Random(1),
        )
        assert 0.0 <= stats.selectivity <= 1.0
        assert stats.fanout >= 0.0
