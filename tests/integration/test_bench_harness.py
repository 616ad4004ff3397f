"""Tests for the benchmark harness and reporting utilities."""

import pytest

from repro.bench.harness import (
    fig1a_series,
    fig1b_series,
    fig2_grid,
    kendall_tau,
    make_inputs,
    run_methods,
)
from repro.bench.reporting import ascii_table, format_value


class TestReporting:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(1.234) == "1.23"
        assert format_value(1234.5) == "1234"
        assert format_value("x") == "x"

    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # all equal width
        assert "long header" in lines[0]

    def test_ascii_table_title(self):
        table = ascii_table(["x"], [[1]], title="My Title")
        assert table.splitlines()[0] == "My Title"


class TestKendallTau:
    def test_identical_orders(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_reversed_orders(self):
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_single_item(self):
        assert kendall_tau(["a"], ["a"]) == 1.0

    def test_one_swap(self):
        assert kendall_tau(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(1 / 3)


class TestMakeInputs:
    def test_round_trip(self):
        inputs = make_inputs(
            tuple_count=50,
            stats={"r.x": (0.3, 1.5)},
            distinct={"r.x": 7},
            document_count=123,
            term_limit=9,
            g=2,
        )
        assert inputs.tuple_count == 50
        assert inputs.document_count == 123
        assert inputs.term_limit == 9
        assert inputs.g == 2
        assert inputs.distinct(["r.x"]) == 7
        assert inputs.predicate_stats["r.x"].selectivity == 0.3


class TestSweeps:
    def test_fig1a_series_shapes(self):
        series = fig1a_series([0.0, 0.5, 1.0])
        assert set(series) == {"TS", "P1+TS", "P1+RTP", "SJ+RTP"}
        assert all(len(values) == 3 for values in series.values())

    def test_fig1b_series_shapes(self):
        series = fig1b_series([0.1, 1.0])
        assert all(len(values) == 2 for values in series.values())

    def test_fig2_grid_dimensions(self):
        grid = fig2_grid([0.1, 0.9], [0.1, 0.5, 0.9])
        assert len(grid) == 3
        assert all(len(row) == 2 for row in grid)
        assert all(winner in ("TS", "P+TS") for row in grid for winner in row)


class TestRunMethods:
    def test_detects_disagreement_would_raise(self, scenario):
        """run_methods asserts cross-method equality internally; a normal
        run must therefore complete without raising."""
        runs = run_methods(scenario, "q1")
        assert {run.method for run in runs} == {"TS", "RTP", "SJ+RTP"}
        assert all(run.measured_cost > 0 for run in runs)

    def test_predictions_attached(self, scenario):
        runs = run_methods(scenario, "q1")
        assert all(run.predicted_cost is not None for run in runs)

    def test_without_predictions(self, scenario):
        runs = run_methods(scenario, "q1", with_predictions=False)
        assert all(run.predicted_cost is None for run in runs)
