"""EXPLAIN for text-join queries: a readable cost breakdown.

:func:`explain_query` renders what the optimizer sees — the gathered
statistics, every applicable method with its predicted cost decomposed
into the Section-4 components, and the chosen winner — the report a
downstream user reads before trusting a plan.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.reporting import ascii_table
from repro.core.costmodel import QueryCostInputs
from repro.core.optimizer.single_join import MethodChoice, enumerate_method_choices
from repro.core.query import TextJoinQuery

__all__ = ["explain_query", "method_table"]


def method_table(title: str, choices: Sequence[MethodChoice]) -> str:
    """Ranked method choices with their Section-4 cost components — the
    one renderer behind every EXPLAIN's method ranking."""
    rows = []
    for rank, choice in enumerate(choices, start=1):
        estimate = choice.estimate
        rows.append(
            [
                rank,
                estimate.method,
                round(estimate.total, 2),
                round(estimate.invocation, 2),
                round(estimate.processing, 2),
                round(estimate.transmission_short, 2),
                round(estimate.transmission_long, 2),
                round(estimate.rtp, 2),
                round(estimate.searches, 1),
            ]
        )
    return ascii_table(
        ["#", "method", "total", "invoke", "process", "short", "long",
         "rtp", "searches"],
        rows,
        title=title,
    )


def explain_query(
    query: TextJoinQuery,
    inputs: QueryCostInputs,
    exhaustive_probes: bool = False,
) -> str:
    """A textual EXPLAIN: statistics, ranked methods, cost components."""
    lines: List[str] = []
    lines.append(f"Query: {query!r}")
    lines.append("")
    lines.append(
        f"Environment: D={inputs.document_count} documents, "
        f"M={inputs.term_limit} terms/search, g={inputs.g}-correlated model"
    )
    lines.append(
        f"Joining relation: N={inputs.tuple_count} tuples after local selection"
    )

    stat_rows = []
    for column, stats in inputs.predicate_stats.items():
        stat_rows.append(
            [
                column,
                stats.field,
                round(stats.selectivity, 4),
                round(stats.fanout, 4),
                int(inputs.distinct([column])),
            ]
        )
    lines.append("")
    lines.append(
        ascii_table(
            ["join column", "text field", "s_i", "f_i", "N_i"],
            stat_rows,
            title="Predicate statistics",
        )
    )

    if inputs.selection.present:
        lines.append("")
        lines.append(
            f"Text selections: E_sel={inputs.selection.result_size:.0f} "
            f"documents, I_sel={inputs.selection.postings:.0f} postings, "
            f"{inputs.selection.term_count} basic terms"
        )

    choices = enumerate_method_choices(
        query, inputs, exhaustive_probes=exhaustive_probes
    )
    lines.append("")
    lines.append(method_table("Method ranking (predicted seconds)", choices))
    lines.append("")
    lines.append(f"Chosen: {choices[0].estimate.method}")
    return "\n".join(lines)
