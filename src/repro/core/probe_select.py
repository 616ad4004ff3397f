"""Optimal probe-column selection (Section 5).

Choosing probe columns trades two opposing factors: adding columns makes
the probe *more selective* (more fail-queries avoided) but raises ``N_J``
(more probes sent).  In the worst case all ``2^k`` subsets must be
compared, but Theorem 5.3 bounds the useful probe size: under a
*g*-correlated cost model the optimal probe set has at most
``min(k, 2g)`` columns — so for the 1-correlated model only one- and
two-column probes need be enumerated, an ``O(k^2)`` search.

Example 5.1 shows why the minimum-selectivity column is not necessarily
optimal (``N_i + s_i N`` is what matters), and Example 5.2 shows a
two-column probe dominating every one-column probe; both are reproduced
in the test suite and the E10 benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.costmodel import (
    CostEstimate,
    QueryCostInputs,
    cost_p_rtp,
    cost_p_ts,
    cost_probe_semijoin,
)
from repro.core.query import TextJoinQuery
from repro.errors import OptimizationError

__all__ = ["ProbeChoice", "candidate_probe_sets", "optimal_probe_columns"]

#: Cost functions per probing variant.
_VARIANTS: dict = {
    "P+TS": cost_p_ts,
    "P+RTP": cost_p_rtp,
    "P": cost_probe_semijoin,
}


@dataclass(frozen=True)
class ProbeChoice:
    """A chosen probe-column set and its predicted cost."""

    columns: Tuple[str, ...]
    estimate: CostEstimate


def candidate_probe_sets(
    query: TextJoinQuery,
    g: int,
    exhaustive: bool = False,
    allow_full: bool = False,
) -> List[Tuple[str, ...]]:
    """Enumerate probe-column subsets to consider.

    By Theorem 5.3 the bounded search stops at ``min(k, 2g)`` columns;
    ``exhaustive=True`` enumerates all ``2^k - 1`` subsets (used by the
    tests to verify the theorem's bound loses nothing).  ``allow_full``
    admits the full join-column set — meaningful for the probe-as-reducer
    (semi-join) variant, pointless for P+TS/P+RTP where the probe would
    duplicate the full query.
    """
    columns = query.join_columns
    k = len(columns)
    max_size = k if exhaustive else min(k, 2 * g)
    out: List[Tuple[str, ...]] = []
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(columns, size):
            if not allow_full and len(subset) == k:
                continue
            out.append(subset)
    return out


def optimal_probe_columns(
    inputs: QueryCostInputs,
    query: TextJoinQuery,
    variant: str = "P+TS",
    exhaustive: bool = False,
    admit: Optional[Callable[[Tuple[str, ...]], bool]] = None,
) -> Optional[ProbeChoice]:
    """The cheapest probe-column set for a probing variant, or ``None``.

    Returns ``None`` when no candidate subset exists (e.g. a single join
    predicate, where any proper probe subset is empty).  ``admit``
    restricts the search to the candidate sets it accepts — the
    enumerator passes the configured method's applicability rule, so a
    set whose method could not run is never priced.
    """
    try:
        cost_function = _VARIANTS[variant]
    except KeyError:
        raise OptimizationError(
            f"unknown probing variant {variant!r}; expected one of "
            f"{sorted(_VARIANTS)}"
        ) from None
    allow_full = variant == "P"
    candidates = candidate_probe_sets(
        query, inputs.g, exhaustive=exhaustive, allow_full=allow_full
    )
    if admit is not None:
        candidates = [subset for subset in candidates if admit(subset)]
    best: Optional[ProbeChoice] = None
    for subset in candidates:
        estimate = cost_function(inputs, query, subset)
        if best is None or estimate.total < best.estimate.total:
            best = ProbeChoice(columns=subset, estimate=estimate)
    return best
