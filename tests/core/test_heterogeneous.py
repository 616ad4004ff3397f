"""The heterogeneous planner: one optimizer, two backends, one query.

Integration tests run the deliverable multibackend scenario end to end;
unit tests pin ``build_vector_cost_inputs`` measurement semantics and
the per-backend choice machinery on a hand-built corpus.
"""

from __future__ import annotations

import pytest

from repro.bench.multibackend import build_multibackend_scenario
from repro.core.heterogeneous import (
    HeterogeneousJoinQuery,
    build_vector_cost_inputs,
    execute_heterogeneous,
    explain_heterogeneous,
    plan_heterogeneous,
)
from repro.core.joinmethods import JoinContext
from repro.core.optimizer import choose_join_method, enumerate_method_choices
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    VectorJoinPredicate,
)
from repro.errors import PlanError
from repro.gateway.client import TextClient
from repro.gateway.costs import VECTOR_CONSTANTS
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.vectorserver import VectorTextServer


@pytest.fixture(scope="module")
def scenario():
    return build_multibackend_scenario()


@pytest.fixture(scope="module")
def planned(scenario):
    scenario.registry.reset()
    query = scenario.query()
    plan = plan_heterogeneous(
        query, scenario.boolean_context(), scenario.vector_context()
    )
    return query, plan


@pytest.fixture
def small_catalog() -> Catalog:
    catalog = Catalog()
    table = catalog.create_table(
        "paper", Schema.of(("topic", DataType.VARCHAR))
    )
    table.insert(["belief revision"])
    table.insert(["belief revision"])  # duplicate binding
    table.insert(["query optimization"])
    table.insert([None])  # NULL never binds
    return catalog


@pytest.fixture
def small_store() -> DocumentStore:
    store = DocumentStore(["topic"], short_fields=["topic"])
    store.add_record("d1", topic="belief revision systems")
    store.add_record("d2", topic="query optimization")
    store.add_record("d3", topic="belief networks")
    return store


@pytest.fixture
def small_context(small_catalog, small_store) -> JoinContext:
    client = TextClient(
        VectorTextServer(small_store, "topic"), constants=VECTOR_CONSTANTS
    )
    return JoinContext(small_catalog, client)


class TestQueryValidation:
    def test_boolean_half_must_be_tuples_shaped(self):
        semi = TextJoinQuery(
            relation="paper",
            join_predicates=(TextJoinPredicate("paper.topic", "topic"),),
            shape=ResultShape.DOCIDS,
        )
        with pytest.raises(PlanError, match="TUPLES"):
            HeterogeneousJoinQuery(
                boolean=semi,
                vector=VectorJoinPredicate("paper.topic", "abstract"),
            )

    def test_relation_comes_from_the_boolean_half(self, scenario):
        query = scenario.query()
        assert query.relation == "student"
        assert "AND" in repr(query)


class TestPlanning:
    def test_plan_splits_methods_per_backend(self, planned):
        _, plan = planned
        assert plan.boolean_choice.name.startswith("P(")
        assert plan.vector_choice.name == "V-TOPK(k=5)"

    def test_choices_ranked_cheapest_first(self, planned):
        _, plan = planned
        for choices in (plan.boolean_choices, plan.vector_choices):
            totals = [choice.estimate.total for choice in choices]
            assert totals == sorted(totals)

    def test_total_estimate_sums_both_halves(self, planned):
        _, plan = planned
        assert plan.total_estimate == pytest.approx(
            plan.boolean_choice.estimate.total
            + plan.vector_choice.estimate.total
        )

    def test_explain_shows_both_method_spaces(self, planned):
        _, plan = planned
        explain = explain_heterogeneous(plan)
        assert "Boolean backend (Section 3 method space)" in explain
        assert "Vector backend (ranked strategy space)" in explain
        assert explain.count("Chosen:") == 2
        assert "Predicted total:" in explain
        assert "V-TOPK" in explain


class TestExecution:
    def test_execute_returns_ranked_survivors(self, scenario, planned):
        query, plan = planned
        execution = execute_heterogeneous(
            query,
            scenario.boolean_context(),
            scenario.vector_context(),
            plan=plan,
        )
        assert execution.plan is plan
        assert execution.rows
        names = {row["student.name"] for row in execution.rows}
        assert names <= set(scenario.parameters["coauthors"])
        for _, matches in execution.row_matches:
            assert matches
            scores = [entry.score for entry in matches]
            assert scores == sorted(scores, reverse=True)
            assert all(score > 0.0 for score in scores)

    def test_charges_split_across_backend_ledgers(self, scenario):
        scenario.registry.reset()
        query = scenario.query()
        boolean_context = scenario.boolean_context()
        vector_context = scenario.vector_context()
        execution = execute_heterogeneous(
            query,
            boolean_context,
            vector_context,
            plan_heterogeneous(query, boolean_context, vector_context),
        )
        boolean_total = scenario.registry.binding(scenario.boolean_name).ledger.total
        vector_total = scenario.registry.binding(scenario.vector_name).ledger.total
        assert boolean_total == pytest.approx(
            execution.boolean_execution.cost.total
        )
        assert vector_total == pytest.approx(
            execution.vector_execution.cost.total
        )
        assert scenario.registry.total() == pytest.approx(
            boolean_total + vector_total
        )

    def test_execution_drops_unranked_survivors(self, scenario):
        """Tuples the Boolean half keeps but the vector half cannot rank
        never appear in the combined result."""
        scenario.registry.reset()
        query = scenario.query(vector_column="student.name")
        boolean_context = scenario.boolean_context()
        vector_context = scenario.vector_context()
        execution = execute_heterogeneous(
            query,
            boolean_context,
            vector_context,
            plan_heterogeneous(query, boolean_context, vector_context),
        )
        # Student names never occur in abstracts: everything is dropped.
        assert execution.rows == []
        assert execution.boolean_execution.tuples


class TestVectorCostInputs:
    def test_bindings_deduped_and_nulls_skipped(self, small_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=2)
        rows = list(small_context.catalog.table("paper").scan())
        inputs = build_vector_cost_inputs(predicate, rows, small_context)
        # 4 rows -> 2 distinct non-NULL bindings.
        assert inputs.binding_count == 2.0
        assert inputs.document_count == 3
        assert inputs.top_k == 2
        assert inputs.scan_visible is True

    def test_postings_measured_from_document_frequencies(self, small_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=2)
        rows = list(small_context.catalog.table("paper").scan())
        ledger = small_context.client.ledger.snapshot()
        inputs = build_vector_cost_inputs(predicate, rows, small_context)
        assert small_context.client.ledger.snapshot() == ledger  # a free read
        server = small_context.client.server
        # binding "belief revision": df(belief)=2 + df(revision)=1 = 3;
        # binding "query optimization": df(query)=1 + df(optimization)=1.
        per_binding = [
            sum(
                server.document_frequency("topic", token)
                for token in tokens
            )
            for tokens in (["belief", "revision"], ["query", "optimization"])
        ]
        assert per_binding == [3, 2]
        assert inputs.postings_per_search == pytest.approx(
            sum(per_binding) / 2
        )
        # Expected results are capped by top_k per binding: min(3,2)=2,
        # min(2,2)=2.
        assert inputs.expected_results == pytest.approx(2.0)

    def test_empty_bindings_produce_zero_rates(self, small_context):
        predicate = VectorJoinPredicate("paper.topic", "topic")
        inputs = build_vector_cost_inputs(predicate, [], small_context)
        assert inputs.binding_count == 0.0
        assert inputs.postings_per_search == 0.0
        assert inputs.expected_results == 0.0

    def test_scan_invisible_when_field_not_short(self, small_catalog):
        hidden = DocumentStore(["topic"], short_fields=[])
        hidden.add_record("d1", topic="belief revision")
        context = JoinContext(
            small_catalog,
            TextClient(
                VectorTextServer(hidden, "topic"), constants=VECTOR_CONSTANTS
            ),
        )
        predicate = VectorJoinPredicate("paper.topic", "topic")
        rows = list(small_catalog.table("paper").scan())
        inputs = build_vector_cost_inputs(predicate, rows, context)
        assert inputs.scan_visible is False
        choices = enumerate_method_choices(predicate, inputs)
        assert [choice.name for choice in choices] == ["V-TOPK(k=10)"]

    def test_choose_returns_the_cheapest_choice(self, small_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=2)
        rows = list(small_context.catalog.table("paper").scan())
        inputs = build_vector_cost_inputs(predicate, rows, small_context)
        choices = enumerate_method_choices(predicate, inputs)
        assert len(choices) == 2
        chosen = choose_join_method(predicate, inputs)
        assert chosen.estimate.total == min(
            choice.estimate.total for choice in choices
        )
