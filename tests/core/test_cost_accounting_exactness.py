"""Where the cost model is *exact*, measured counts must equal predictions.

With exact statistics (the calibrated setting), some predicted
quantities are not estimates at all:

- TS sends exactly ``N_K`` searches;
- SJ sends exactly ``ceil(N_K k / (M - sel_terms))`` searches;
- B+TS sends exactly ``ceil(N_K / B)`` invocations;
- probe-first P+TS sends exactly ``N_J`` probes plus one full search per
  surviving group;
- postings processed by TS equal ``N_K * (sum f_i + I_sel)``.

These tests pin the accounting identity between the formulas and the
metered executions on the canonical scenario.
"""

import math
from dataclasses import replace

import pytest

from repro.core.costmodel import cost_sj, cost_ts
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import (
    ProbeTupleSubstitution,
    SemiJoin,
    TupleSubstitution,
)
from repro.core.query import ResultShape


class TestTsExactness:
    def test_invocation_count(self, scenario):
        for query_id in ("q1", "q2", "q3", "q4"):
            query = scenario.query(query_id)
            inputs = build_cost_inputs(query, scenario.context())
            predicted = cost_ts(inputs, query).searches
            execution = TupleSubstitution().execute(query, scenario.context())
            assert execution.cost.searches == predicted, query_id

    def test_postings_processed(self, scenario):
        """Postings are mean-based (f_i averages over distinct values), so
        they are near-exact rather than exact when tuples are non-uniform
        over values (Q3's 10-member project vs the 9-member ones)."""
        query = scenario.q3()
        inputs = build_cost_inputs(query, scenario.context())
        execution = TupleSubstitution().execute(query, scenario.context())
        predicted = inputs.distinct(query.join_columns) * (
            inputs.postings_per_search(query.join_columns)
        )
        assert execution.cost.postings_processed == pytest.approx(
            predicted, rel=0.05
        )


class TestSjExactness:
    def test_batch_count(self, scenario):
        query = scenario.q2()  # DOCIDS shape
        inputs = build_cost_inputs(query, scenario.context())
        predicted = cost_sj(inputs, query).searches
        execution = SemiJoin().execute(query, scenario.context())
        assert execution.cost.searches == predicted

    def test_batch_formula(self, scenario):
        query = replace(scenario.q1(long_form=False), shape=ResultShape.DOCIDS)
        inputs = build_cost_inputs(query, scenario.context())
        n_k = inputs.distinct(query.join_columns)
        capacity = inputs.term_limit - inputs.selection.term_count
        expected = math.ceil(n_k * len(query.join_columns) / capacity)
        execution = SemiJoin().execute(query, scenario.context())
        assert execution.cost.searches == expected


class TestProbeFirstExactness:
    def test_probe_plus_survivor_invocations(self, scenario):
        """Probe-first P+TS sends N_J probes + one full search per distinct
        K-group whose probe succeeded."""
        query = scenario.q3()
        column = "project.name"
        inputs = build_cost_inputs(query, scenario.context())
        n_j = int(inputs.distinct([column]))

        # Count surviving groups directly from the data.
        from repro.core.joinmethods.base import (
            group_by_columns,
            joining_rows,
        )
        from repro.textsys.query import data_term

        context = scenario.context()
        rows = joining_rows(context, query)
        survivors = 0
        succeeded_names = {
            name
            for name in {row[column] for row in rows}
            if len(scenario.server.search(data_term("title", str(name)))) > 0
        }
        for key, group in group_by_columns(rows, query.join_columns).items():
            if group[0][column] in succeeded_names:
                survivors += 1

        execution = ProbeTupleSubstitution((column,)).execute(
            query, scenario.context()
        )
        assert execution.cost.searches == n_j + survivors
