"""ASCII rendering of benchmark tables and series.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output aligned and readable both under pytest
(-s) and in the examples.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["ascii_table", "format_value", "counter_delta_rows"]


def format_value(value: Any) -> str:
    """Compact formatting: floats to 2 decimals, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:.0f}"
        return f"{value:.2f}"
    return str(value)


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table with a header rule."""
    cells = [[format_value(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def counter_delta_rows(before, after) -> List[List[Any]]:
    """Table rows for the server work done between two counter snapshots.

    ``before`` and ``after`` are :class:`~repro.textsys.server.
    ServerCounters` (or anything supporting ``-`` and ``as_dict()``);
    the rows are ``[counter, delta]`` pairs ready for
    :func:`ascii_table`, so benchmark reports never hand-copy the four
    counter fields.
    """
    return [[name, value] for name, value in (after - before).as_dict().items()]
