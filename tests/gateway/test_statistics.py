"""Unit + property tests for the g-correlated joint statistics model
(DESIGN.md invariant 6)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StatisticsError
from repro.gateway.statistics import (
    PredicateStatistics,
    TextStatisticsRegistry,
    joint_fanout,
    joint_selectivity,
)

sel_lists = st.lists(st.floats(0.001, 1.0), min_size=1, max_size=6)
fan_lists = st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6)


class TestPredicateStatistics:
    def test_valid_construction(self):
        stats = PredicateStatistics("c", "f", selectivity=0.2, fanout=1.0)
        assert (stats.selectivity, stats.fanout) == (0.2, 1.0)

    def test_selectivity_range_checked(self):
        with pytest.raises(StatisticsError):
            PredicateStatistics("c", "f", selectivity=1.5, fanout=1.0)

    def test_negative_fanout_rejected(self):
        with pytest.raises(StatisticsError):
            PredicateStatistics("c", "f", selectivity=0.5, fanout=-1.0)


class TestJointSelectivity:
    def test_one_correlated_is_min(self):
        assert joint_selectivity([0.5, 0.1, 0.9], 1) == pytest.approx(0.1)

    def test_k_correlated_is_product(self):
        assert joint_selectivity([0.5, 0.1, 0.9], 3) == pytest.approx(0.045)

    def test_g_between(self):
        assert joint_selectivity([0.5, 0.1, 0.9], 2) == pytest.approx(0.05)

    def test_g_larger_than_k_clamps(self):
        assert joint_selectivity([0.5], 4) == pytest.approx(0.5)

    def test_empty_is_one(self):
        assert joint_selectivity([], 1) == 1.0

    def test_invalid_g(self):
        with pytest.raises(StatisticsError):
            joint_selectivity([0.5], 0)


class TestJointFanout:
    def test_one_correlated_is_min(self):
        assert joint_fanout([5.0, 2.0, 9.0], 1, 100) == pytest.approx(2.0)

    def test_two_correlated_divides_by_d(self):
        assert joint_fanout([5.0, 2.0], 2, 100) == pytest.approx(10.0 / 100)

    def test_empty_is_d(self):
        assert joint_fanout([], 1, 100) == 100.0

    def test_invalid_document_count(self):
        with pytest.raises(StatisticsError):
            joint_fanout([1.0], 1, 0)


class TestRegistry:
    def test_put_get(self):
        registry = TextStatisticsRegistry()
        stats = PredicateStatistics("c", "f", 0.5, 1.0)
        registry.put(stats)
        assert registry.get("c", "f") is stats
        assert registry.has("c", "f")
        assert len(registry) == 1

    def test_missing_raises(self):
        with pytest.raises(StatisticsError):
            TextStatisticsRegistry().get("c", "f")

    def test_overwrite(self):
        registry = TextStatisticsRegistry()
        registry.put(PredicateStatistics("c", "f", 0.5, 1.0))
        registry.put(PredicateStatistics("c", "f", 0.6, 2.0))
        assert registry.get("c", "f").selectivity == 0.6
        assert len(registry) == 1


@given(values=sel_lists)
def test_selectivity_monotone_in_g(values):
    """More independence (larger g) can only shrink joint selectivity."""
    previous = None
    for g in range(1, len(values) + 1):
        current = joint_selectivity(values, g)
        if previous is not None:
            assert current <= previous + 1e-12
        previous = current


@given(values=sel_lists)
def test_selectivity_extremes(values):
    assert joint_selectivity(values, 1) == pytest.approx(min(values))
    product = 1.0
    for value in values:
        product *= value
    assert joint_selectivity(values, len(values)) == pytest.approx(product)


@given(values=fan_lists, d=st.integers(1, 10_000))
def test_fanout_extremes(values, d):
    assert joint_fanout(values, 1, d) == pytest.approx(min(values))
    product = 1.0
    for value in values:
        product *= value
    expected = product / (d ** (len(values) - 1))
    assert joint_fanout(values, len(values), d) == pytest.approx(expected)
