"""Benchmark harness: one entry point per paper table/figure (see
DESIGN.md's experiment index and EXPERIMENTS.md for results)."""

from repro.bench.harness import (
    MethodRun,
    cache_report,
    enumeration_report,
    fig1a_series,
    fig1b_series,
    fig2_grid,
    kendall_tau,
    make_inputs,
    multijoin_report,
    ranking_report,
    run_methods,
    table2_rows,
)
from repro.bench.reporting import (
    ascii_table,
    counter_delta_rows,
    format_value,
)

__all__ = [
    "MethodRun",
    "make_inputs",
    "run_methods",
    "table2_rows",
    "ranking_report",
    "kendall_tau",
    "fig1a_series",
    "fig1b_series",
    "fig2_grid",
    "multijoin_report",
    "enumeration_report",
    "cache_report",
    "ascii_table",
    "counter_delta_rows",
    "format_value",
]
