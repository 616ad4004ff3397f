"""Tests for the B+TS join method and its cost formula."""

import math

import pytest

from repro.bench.harness import make_inputs
from repro.core.joinmethods import (
    BatchedTupleSubstitution,
    TupleSubstitution,
    cost_batched_ts,
)
from repro.core.joinmethods.base import JoinContext
from repro.core.costmodel import cost_ts
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import JoinMethodError
from repro.gateway.client import TextClient
from repro.textsys.server import BooleanTextServer


def query():
    return TextJoinQuery(
        relation="student",
        join_predicates=(TextJoinPredicate("student.name", "author"),),
        text_selections=(TextSelection("belief update", "title"),),
    )


@pytest.fixture
def batched_context(tiny_catalog, tiny_server):
    return JoinContext(
        tiny_catalog, TextClient(BooleanTextServer(tiny_server.store, batch_limit=3))
    )


class TestExecution:
    def test_same_results_as_ts(self, batched_context):
        b_ts = BatchedTupleSubstitution().execute(query(), batched_context)
        ts = TupleSubstitution().execute(query(), batched_context)
        assert b_ts.result_keys() == ts.result_keys()

    def test_invocations_divided_by_batch_size(self, batched_context):
        before = batched_context.client.ledger.snapshot()
        BatchedTupleSubstitution().execute(query(), batched_context)
        delta = batched_context.client.ledger.diff(before)
        # 5 distinct students over batches of 3 -> 2 invocations.
        assert delta.searches == 2

    def test_explicit_batch_limit(self, batched_context):
        before = batched_context.client.ledger.snapshot()
        BatchedTupleSubstitution(batch_limit=1).execute(query(), batched_context)
        delta = batched_context.client.ledger.diff(before)
        assert delta.searches == 5

    def test_requires_batching_server(self, tiny_context):
        method = BatchedTupleSubstitution()
        assert not method.applicable(query(), tiny_context)
        with pytest.raises(JoinMethodError):
            method.execute(query(), tiny_context)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            BatchedTupleSubstitution(batch_limit=0)


class TestCostFormula:
    def test_only_invocations_change(self):
        inputs = make_inputs(
            tuple_count=100,
            stats={"r.x": (0.2, 2.0)},
            distinct={"r.x": 100},
        )
        q = TextJoinQuery(
            relation="r",
            join_predicates=(TextJoinPredicate("r.x", "title"),),
        )
        plain = cost_ts(inputs, q)
        batched = cost_batched_ts(inputs, q, batch_limit=10)
        assert batched.searches == math.ceil(100 / 10)
        assert batched.invocation == pytest.approx(plain.invocation / 10)
        assert batched.processing == pytest.approx(plain.processing)
        assert batched.transmission_short == pytest.approx(plain.transmission_short)
        assert batched.total < plain.total


class TestOptimizerIntegration:
    def test_optimizer_considers_bts_with_batching_server(self, batched_context):
        from repro.core.inputs import build_cost_inputs
        from repro.core.optimizer.single_join import enumerate_method_choices

        q = query()
        inputs = build_cost_inputs(q, batched_context)
        assert inputs.batch_limit == 3
        names = {choice.estimate.method for choice in enumerate_method_choices(q, inputs)}
        assert "B+TS" in names

    def test_plain_server_excludes_bts(self, tiny_context):
        from repro.core.inputs import build_cost_inputs
        from repro.core.optimizer.single_join import enumerate_method_choices

        q = query()
        inputs = build_cost_inputs(q, tiny_context)
        assert inputs.batch_limit is None
        names = {choice.estimate.method for choice in enumerate_method_choices(q, inputs)}
        assert "B+TS" not in names

    def test_bts_dominates_ts_in_ranking(self, batched_context):
        from repro.core.inputs import build_cost_inputs
        from repro.core.optimizer.single_join import enumerate_method_choices

        q = query()
        inputs = build_cost_inputs(q, batched_context)
        by_name = {
            choice.estimate.method: choice.estimate.total
            for choice in enumerate_method_choices(q, inputs)
        }
        assert by_name["B+TS"] <= by_name["TS"]
