"""Unit tests for the plan estimator's selectivity and pricing rules."""

import pytest

from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.estimator import PlanEstimator
from repro.core.optimizer.multiquery import MultiJoinQuery, RelationalJoinPredicate
from repro.core.optimizer.plan import JoinNode, ProbeNode, ScanNode, TextJoinNode
from repro.core.query import TextJoinPredicate
from repro.gateway.client import TextClient
from repro.gateway.statistics import TextStatisticsRegistry
from repro.relational.catalog import Catalog
from repro.relational.expressions import ColumnRef, Comparison
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer


@pytest.fixture
def world():
    catalog = Catalog()
    left = catalog.create_table(
        "l", Schema.of(("k", DataType.VARCHAR), ("who", DataType.VARCHAR))
    )
    right = catalog.create_table(
        "r", Schema.of(("k", DataType.VARCHAR), ("x", DataType.INTEGER))
    )
    for i in range(10):
        left.insert([f"k{i % 5}", f"person{i % 2}"])
    for i in range(6):
        right.insert([f"k{i % 3}", i])

    store = DocumentStore(["author"], short_fields=["author"])
    store.add_record("d1", author="person0")
    store.add_record("d2", author="someone else")
    server = BooleanTextServer(store)
    query = MultiJoinQuery(
        relations=("l", "r"),
        text_predicates=(TextJoinPredicate("l.who", "author"),),
        join_predicates=(
            RelationalJoinPredicate(
                Comparison("=", ColumnRef("l.k"), ColumnRef("r.k")),
                ("l", "r"),
            ),
        ),
        text_source="doc",
    )
    return catalog, server, query


def estimator_for(world):
    catalog, server, query = world
    return query, PlanEstimator(query, JoinContext(catalog, TextClient(server)))


class TestRegistry:
    def test_an_empty_registry_handed_in_is_the_one_filled(self, world):
        """``registry or TextStatisticsRegistry()`` silently swapped an
        empty registry (``__len__`` == 0) for a private one."""
        catalog, server, query = world
        registry = TextStatisticsRegistry()
        estimator = PlanEstimator(
            query, JoinContext(catalog, TextClient(server)), registry=registry
        )
        assert estimator.registry is registry
        assert registry.has("l.who", "author")
        assert registry.get("l.who", "author") == estimator.predicate_stats("l.who")

    def test_a_warm_registry_is_reused_without_measuring(self, world):
        catalog, server, query = world
        registry = TextStatisticsRegistry()
        PlanEstimator(
            query, JoinContext(catalog, TextClient(server)), registry=registry
        )
        searches = server.counters.searches
        PlanEstimator(
            query, JoinContext(catalog, TextClient(server)), registry=registry
        )
        assert server.counters.searches == searches


class TestJoinSelectivity:
    def _join(self, query, estimator, op):
        predicate = RelationalJoinPredicate(
            Comparison(op, ColumnRef("l.k"), ColumnRef("r.k")), ("l", "r")
        )
        join = JoinNode(
            left=ScanNode(relation="l"),
            right=ScanNode(relation="r"),
            relational_predicates=(predicate,),
        )
        estimator.annotate(join)
        return join

    def test_equality_uses_max_distinct(self, world):
        query, estimator = estimator_for(world)
        join = self._join(query, estimator, "=")
        # 10 * 6 / max(5, 3) = 12
        assert join.estimated_rows == pytest.approx(60 / 5)

    def test_inequality_complement(self, world):
        query, estimator = estimator_for(world)
        join = self._join(query, estimator, "!=")
        assert join.estimated_rows == pytest.approx(60 * (1 - 1 / 5))

    def test_range_one_third(self, world):
        query, estimator = estimator_for(world)
        join = self._join(query, estimator, "<")
        assert join.estimated_rows == pytest.approx(20.0)

    def test_relational_join_priced_with_cj(self, world):
        query, estimator = estimator_for(world)
        join = self._join(query, estimator, "=")
        assert join.estimated_cost == pytest.approx(
            estimator.join_comparison_cost * 60
        )


class TestTextSidePricing:
    def test_text_match_join_priced_with_ca(self, world):
        query, estimator = estimator_for(world)
        text_node = TextJoinNode(
            child=ScanNode(relation="l"),
            method=__import__(
                "repro.core.joinmethods", fromlist=["TupleSubstitution"]
            ).TupleSubstitution(),
            available_predicates=query.text_predicates,
        )
        estimator.annotate(text_node)
        join = JoinNode(
            left=text_node,
            right=ScanNode(relation="r"),
            relational_predicates=query.join_predicates,
        )
        estimator.annotate(join)
        c_a = estimator.context.client.ledger.constants.rtp_per_document
        pairs = text_node.estimated_rows * 6
        expected = text_node.estimated_cost + c_a * pairs
        assert join.estimated_cost == pytest.approx(expected)

    def test_probe_reduces_by_selectivity(self, world):
        query, estimator = estimator_for(world)
        scan = ScanNode(relation="l")
        probe = ProbeNode(
            child=scan,
            probe_columns=("l.who",),
            probe_predicates=query.text_predicates,
        )
        estimator.annotate(probe)
        # person0 matches, person1 does not: s = 0.5.
        assert probe.estimated_rows == pytest.approx(10 * 0.5)

    def test_probe_cost_counts_distinct_groups(self, world):
        query, estimator = estimator_for(world)
        scan = ScanNode(relation="l")
        probe = ProbeNode(
            child=scan,
            probe_columns=("l.who",),
            probe_predicates=query.text_predicates,
        )
        estimator.annotate(probe)
        c_i = estimator.context.client.ledger.constants.invocation
        # 2 distinct who-values -> 2 probes minimum.
        assert probe.estimated_cost >= 2 * c_i
