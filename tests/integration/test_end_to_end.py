"""Integration tests: the full Table-2 scenario, end to end.

These run every join method on the canonical queries, check the
cross-method equivalence on real (scenario-sized) data, verify the
Table-2 winners, and exercise the optimizer → executor path for Q5.
"""

import pytest

from repro.bench import table2_rows
from repro.core import (
    PlanEstimator,
    build_cost_inputs,
    choose_join_method,
    execute_plan,
    optimize_multijoin,
)
from repro.core.joinmethods import TupleSubstitution

from tests.conftest import counting_schemas, scenario_context


@pytest.fixture(scope="module")
def table2(scenario):
    return table2_rows(scenario)


class TestMethodEquivalenceAtScale:
    def test_all_queries_all_methods_agree(self, table2):
        """run_methods raises internally if any method disagrees."""
        for query_id, runs in table2.items():
            assert len(runs) >= 3
            result_sizes = {run.results for run in runs}
            assert len(result_sizes) == 1

    def test_expected_result_sizes(self, scenario, table2):
        sizes = {qid: runs[0].results for qid, runs in table2.items()}
        assert sizes["q1"] == 4
        assert sizes["q2"] == 3
        assert sizes["q3"] == scenario.parameters["q3"]["planted_join_documents"]
        assert sizes["q4"] == scenario.parameters["q4"]["planted_join_documents"]


class TestTable2Winners:
    @pytest.mark.parametrize(
        "query_id, winner_prefix",
        [("q1", "RTP"), ("q2", "SJ"), ("q3", "P(name)+TS"), ("q4", "P(advisor)+RTP")],
    )
    def test_measured_winner(self, table2, query_id, winner_prefix):
        runs = sorted(table2[query_id], key=lambda run: run.measured_cost)
        assert runs[0].method == winner_prefix

    def test_ts_dominated_everywhere(self, table2):
        """TS is never the winner on any canonical query (the paper's
        headline: tuple substitution is prohibitively expensive)."""
        for query_id, runs in table2.items():
            winner = min(runs, key=lambda run: run.measured_cost)
            assert winner.method != "TS"


class TestOptimizerExecutesItsChoice:
    @pytest.mark.parametrize("query_id", ["q1", "q2", "q3", "q4"])
    def test_choice_executes_and_matches_ts(self, scenario, query_id):
        query = scenario.query(query_id)
        inputs = build_cost_inputs(query, scenario.context())
        choice = choose_join_method(query, inputs)
        chosen = choice.method.execute(query, scenario.context())
        reference = TupleSubstitution().execute(query, scenario.context())
        assert chosen.result_keys() == reference.result_keys()
        assert chosen.cost.total <= reference.cost.total * 1.05


class TestMultiJoinEndToEnd:
    def test_q5_spaces_agree_and_dominate(self, scenario):
        query = scenario.q5()
        results = {}
        costs = {}
        for space in ("traditional", "prl", "extended"):
            estimator = PlanEstimator(query, scenario.context())
            optimized = optimize_multijoin(query, estimator, space=space)
            execution = execute_plan(optimized.plan, query, scenario.context())
            results[space] = execution.result_keys()
            costs[space] = optimized.estimated_cost
        assert results["traditional"] == results["prl"] == results["extended"]
        assert costs["prl"] <= costs["traditional"] + 1e-9
        assert costs["extended"] <= costs["prl"] + 1e-9

    def test_q5_prl_execution_builds_one_schema_per_operator(
        self, scenario, monkeypatch
    ):
        """Q5's relational join visits 6,600 candidate pairs; executing
        the plan builds a handful of schemas (one per join node), not
        one per pair — and what it computes is pinned alongside."""
        query = scenario.q5()
        optimized = optimize_multijoin(
            query, PlanEstimator(query, scenario.context()), space="prl"
        )
        with counting_schemas(monkeypatch) as built:
            execution = execute_plan(optimized.plan, query, scenario.context())
        assert len(built) < 50
        assert len(execution.rows) == 10
        assert execution.relational_comparisons == 6600
        assert execution.cost.total == pytest.approx(169.63346, abs=1e-5)
        assert all(row.schema is execution.schema for row in execution.rows)

    def test_q5_result_keys_ignore_join_order(self, scenario):
        """With a batch-capable source ``extended`` joins in another
        column order than ``prl``; the rows agree column by column, so
        the keys must too (the ``multijoin --remote/--shards`` abort)."""
        query = scenario.q5()

        def context():
            return scenario_context(scenario, batch_limit=50)

        executions = {}
        for space in ("prl", "extended"):
            optimized = optimize_multijoin(
                query, PlanEstimator(query, context()), space=space
            )
            executions[space] = execute_plan(optimized.plan, query, context())
        prl, extended = executions["prl"], executions["extended"]
        assert prl.schema.names() != extended.schema.names()
        assert sorted(prl.schema.names()) == sorted(extended.schema.names())
        assert prl.result_keys() == extended.result_keys()
        assert len(prl.result_keys()) == len(set(prl.rows))

    def test_q5_finds_cross_department_pairs(self, scenario):
        query = scenario.q5()
        estimator = PlanEstimator(query, scenario.context())
        optimized = optimize_multijoin(query, estimator)
        execution = execute_plan(optimized.plan, query, scenario.context())
        assert len(execution.rows) >= scenario.parameters["q5"]["planted_pairs"]
        for row in execution.rows:
            assert row["student.dept"] != row["faculty.dept"]


class TestLedgerConsistency:
    def test_measured_cost_matches_ledger_identity(self, scenario):
        """Invariant 5 at scale: ledger total equals the priced counters."""
        query = scenario.q3()
        context = scenario.context()
        execution = TupleSubstitution().execute(query, context)
        ledger = execution.cost
        constants = ledger.constants
        expected = (
            constants.invocation * ledger.searches
            + constants.per_posting * ledger.postings_processed
            + constants.short_form * ledger.short_documents
            + constants.long_form * ledger.long_documents
            + constants.rtp_per_document * ledger.rtp_documents
        )
        assert ledger.total == pytest.approx(expected)
