"""Unit tests for build_cost_inputs (statistics gathering)."""

import pytest

from repro.core.inputs import build_cost_inputs, distinct_counts_for
from repro.core.joinmethods import JoinContext, TupleSubstitution
from repro.core.optimizer import PlanEstimator, choose_join_method, optimize_multijoin
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import BudgetExceededError
from repro.gateway.client import TextClient
from repro.gateway.statistics import TextStatisticsRegistry
from repro.gateway.tracing import CallTracer
from repro.remote.channel import LoopbackChannel
from repro.remote.endpoint import TextServerEndpoint
from repro.remote.router import build_sharded_transport
from repro.remote.transport import RemoteTextTransport
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.serving.tenants import BudgetedCostLedger
from repro.workload import build_default_scenario


def q4_query():
    return TextJoinQuery(
        relation="student",
        join_predicates=(
            TextJoinPredicate("student.advisor", "author"),
            TextJoinPredicate("student.name", "author"),
        ),
    )


class TestDistinctCounts:
    def test_all_subsets(self):
        schema = Schema.of(("a", DataType.VARCHAR), ("b", DataType.VARCHAR))
        rows = [
            Row(schema, ["x", "1"]),
            Row(schema, ["x", "2"]),
            Row(schema, ["y", "1"]),
            Row(schema, ["y", None]),
        ]
        counts = distinct_counts_for(rows, ["a", "b"])
        assert counts[frozenset(["a"])] == 2
        assert counts[frozenset(["b"])] == 2
        # NULL-containing pair excluded.
        assert counts[frozenset(["a", "b"])] == 3

    def test_empty_rows(self):
        counts = distinct_counts_for([], ["a"])
        assert counts[frozenset(["a"])] == 0


class TestBuildCostInputs:
    def test_relational_side_exact(self, tiny_context):
        inputs = build_cost_inputs(q4_query(), tiny_context)
        assert inputs.tuple_count == 5
        assert inputs.distinct(["student.advisor"]) == 2
        assert inputs.distinct(["student.name"]) == 5

    def test_respects_relation_predicate(self, tiny_context):
        query = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            relation_predicate=Comparison(
                "=", ColumnRef("student.area"), Literal("AI")
            ),
        )
        inputs = build_cost_inputs(query, tiny_context)
        assert inputs.tuple_count == 3

    def test_predicate_statistics_exact(self, tiny_context):
        inputs = build_cost_inputs(q4_query(), tiny_context)
        # advisors: garcia (1 doc), ullman (0 docs) -> s=0.5, f=0.5
        advisor = inputs.predicate_stats["student.advisor"]
        assert advisor.selectivity == pytest.approx(0.5)
        assert advisor.fanout == pytest.approx(0.5)

    def test_selection_statistics_measured(self, tiny_context):
        query = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("belief update", "title"),),
        )
        inputs = build_cost_inputs(query, tiny_context)
        assert inputs.selection.present
        assert inputs.selection.result_size == 2.0
        assert inputs.selection.term_count == 1

    def test_no_selection_absent(self, tiny_context):
        inputs = build_cost_inputs(q4_query(), tiny_context)
        assert not inputs.selection.present

    def test_registry_caching(self, tiny_context):
        registry = TextStatisticsRegistry()
        build_cost_inputs(q4_query(), tiny_context, registry=registry)
        assert registry.has("student.advisor", "author")
        assert registry.has("student.name", "author")
        # Second build reuses the registry (same objects).
        inputs = build_cost_inputs(q4_query(), tiny_context, registry=registry)
        assert inputs.predicate_stats["student.name"] is registry.get(
            "student.name", "author"
        )

    def test_sampled_mode_charges_client(self, tiny_context):
        import random

        build_cost_inputs(
            q4_query(),
            tiny_context,
            exact=False,
            sample_size=2,
            rng=random.Random(0),
        )
        # 2 samples per predicate x 2 predicates, and nothing unmetered.
        assert tiny_context.client.ledger.searches == 4
        assert tiny_context.client.server.counters.searches == 4

    def test_environment_parameters(self, tiny_context):
        inputs = build_cost_inputs(q4_query(), tiny_context)
        assert inputs.document_count == 4
        assert inputs.term_limit == 70
        assert inputs.g == 1


def stats_traffic(client):
    """``(statistics searches, directory terms read)`` off the client's
    own trace, which must hold nothing but ``"stats"`` spans."""
    spans = client.tracer.spans
    assert {span.kind for span in spans} <= {"stats"}
    reads = [span for span in spans if span.expression.startswith("<")]
    return len(spans) - len(reads), sum(span.result_size for span in reads)


def plan_q5(scenario, context):
    q5 = scenario.q5()
    return optimize_multijoin(q5, PlanEstimator(q5, context), space="prl")


class TestOneDoor:
    """Planning reads the source through the client only: exact-mode
    gathering is directory reads plus the one selection search, all
    unmetered, settled and traced there."""

    @pytest.mark.parametrize("spent", [False, True])
    def test_exact_planning_never_moves_the_ledger(self, scenario, spent):
        ledger = BudgetedCostLedger(
            constants=scenario.constants, budget_seconds=0.0 if spent else None
        )
        client = TextClient(scenario.server, ledger=ledger)
        if spent:
            with pytest.raises(BudgetExceededError):
                client.search("AU='garcia'")
        context = JoinContext(scenario.catalog, client)
        before = ledger.snapshot()
        for qid in ("q1", "q2", "q3", "q4"):
            build_cost_inputs(scenario.query(qid), context)
        plan_q5(scenario, context)
        assert ledger.snapshot() == before

    def test_searches_and_directory_reads_per_plan(self, scenario):
        def traced():
            client = TextClient(
                scenario.server, constants=scenario.constants, tracer=CallTracer()
            )
            return JoinContext(scenario.catalog, client)

        context = traced()
        plan_q5(scenario, context)
        assert stats_traffic(context.client) == (1, 350)
        context = traced()
        build_cost_inputs(scenario.q3(), context)
        assert stats_traffic(context.client) == (0, 121)

    def test_planning_without_a_selection_reads_only_the_directory(self, scenario):
        server = scenario.server
        pages, counters = server.index.pages_read, server.counters.snapshot()
        for query in (scenario.q3(), scenario.q4()):
            build_cost_inputs(query, scenario.context())
        assert server.index.pages_read == pages
        assert server.counters.snapshot() == counters

    def test_one_corpus_four_views(self, scenario):
        server = scenario.server
        views = [
            server,
            RemoteTextTransport(server, profile="lan", time_scale=0.0),
            RemoteTextTransport(
                channel=LoopbackChannel(TextServerEndpoint(server).handle)
            ),
            build_sharded_transport(server, shards=2, profile="lan", time_scale=0.0),
        ]
        query = scenario.query("q1")
        gathered = []
        for view in views:
            client = TextClient(view, constants=scenario.constants)
            gathered.append(
                build_cost_inputs(query, JoinContext(scenario.catalog, client))
            )
        for view in views[1:]:
            view.close()
        local = gathered[0]
        assert local.selection.present and local.predicate_stats
        for inputs in gathered[1:]:
            assert inputs.selection == local.selection
            assert inputs.predicate_stats == local.predicate_stats

    def test_retry_waste_is_settled_by_the_planning_call(self, scenario):
        transport = RemoteTextTransport(
            scenario.server, profile="flaky", seed=2, time_scale=0.0
        )
        client = TextClient(transport, constants=scenario.constants)
        build_cost_inputs(scenario.q3(), JoinContext(scenario.catalog, client))
        assert transport.stats.seconds_retried > 0.0
        assert client.ledger.seconds_retried == pytest.approx(
            transport.stats.seconds_retried
        )
        assert transport.drain_accounting() == (0.0, [])
        assert client.ledger.total == 0.0
        transport.close()


class TestJoinValuesAreDataNotQuerySyntax:
    """Statistics instantiate a join value the way every method does."""

    @staticmethod
    def q3_with_member(member):
        scenario = build_default_scenario(seed=7)
        scenario.catalog.table("project").insert(["weird001prj", "NSF", member])
        return scenario

    @staticmethod
    def assert_planned_method_answers_like_ts(scenario, inputs):
        query = scenario.q3()
        planned = choose_join_method(query, inputs).method
        assert (
            planned.execute(query, scenario.context()).result_keys()
            == TupleSubstitution().execute(query, scenario.context()).result_keys()
        )

    def test_value_without_an_indexable_word_is_one_miss(self, scenario):
        plain = build_cost_inputs(scenario.q3(), scenario.context())
        weird = self.q3_with_member("???")
        inputs = build_cost_inputs(weird.q3(), weird.context())
        before = plain.predicate_stats["project.member"]
        after = inputs.predicate_stats["project.member"]
        assert after.sample_size == before.sample_size + 1
        assert after.selectivity * after.sample_size == pytest.approx(
            before.selectivity * before.sample_size
        )
        assert after.fanout * after.sample_size == pytest.approx(
            before.fanout * before.sample_size
        )
        self.assert_planned_method_answers_like_ts(weird, inputs)

    def test_trailing_question_mark_is_punctuation(self):
        marked = self.q3_with_member("garcia?")
        bare = self.q3_with_member("garcia")
        inputs = build_cost_inputs(marked.q3(), marked.context())
        expected = build_cost_inputs(bare.q3(), bare.context())
        assert (
            inputs.predicate_stats["project.member"]
            == expected.predicate_stats["project.member"]
        )
        self.assert_planned_method_answers_like_ts(marked, inputs)
