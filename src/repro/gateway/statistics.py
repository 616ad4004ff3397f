"""Text-predicate statistics and the *g*-correlated joint model (Section 4.2).

For each foreign join predicate ``column_i in field_i`` the optimizer
keeps two statistics:

- **selectivity** ``s_i`` — the probability that a term drawn from
  column *i* occurs in field *i* of some document;
- **fanout** ``f_i`` — the average number of documents in which a term
  drawn from column *i* occurs in field *i*.

When a query has several text join predicates, joint statistics follow
the *g-correlated* model: order the predicates by increasing statistic
and keep only the ``g`` most selective —

    S_{g,K} = prod of the g smallest s_i
    F_{g,K} = (prod of the g smallest f_i) / D^(g-1)

``g = 1`` assumes full correlation (joint = minimum); ``g = k`` assumes
full independence (joint = product).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import StatisticsError

__all__ = [
    "PredicateStatistics",
    "TextStatisticsRegistry",
    "joint_selectivity",
    "joint_fanout",
    "blend_statistics",
]


@dataclass(frozen=True)
class PredicateStatistics:
    """Estimated statistics for one foreign predicate ``column in field``."""

    column: str
    field: str
    selectivity: float  # s_i in [0, 1]
    fanout: float  # f_i >= 0 (mean documents per term, zero-matches included)
    sample_size: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise StatisticsError(
                f"selectivity {self.selectivity} for {self.column!r} not in [0, 1]"
            )
        if self.fanout < 0:
            raise StatisticsError(f"fanout {self.fanout} for {self.column!r} negative")


def joint_selectivity(selectivities: Sequence[float], g: int) -> float:
    """``S_{g,K}``: product of the ``g`` smallest selectivities."""
    if not selectivities:
        return 1.0
    if g < 1:
        raise StatisticsError("g must be at least 1")
    ordered = sorted(selectivities)
    product = 1.0
    for value in ordered[: min(g, len(ordered))]:
        product *= value
    return product


def joint_fanout(fanouts: Sequence[float], g: int, document_count: int) -> float:
    """``F_{g,K}``: product of the ``g`` smallest fanouts over ``D^(g-1)``."""
    if not fanouts:
        return float(document_count)
    if g < 1:
        raise StatisticsError("g must be at least 1")
    if document_count < 1:
        raise StatisticsError("document count must be positive")
    ordered = sorted(fanouts)
    effective = min(g, len(ordered))
    product = 1.0
    for value in ordered[:effective]:
        product *= value
    return product / (document_count ** (effective - 1))


def blend_statistics(
    prior: PredicateStatistics,
    observed: PredicateStatistics,
    prior_weight: float,
) -> PredicateStatistics:
    """Weighted blend of a prior estimate with runtime observations.

    ``prior_weight`` is the prior's equivalent sample size; the observed
    statistics weigh in with their own ``sample_size`` (number of real
    searches behind them).  The blend is the precision-weighted mean

        s = (w_p * s_prior + w_o * s_obs) / (w_p + w_o)

    clamped back into the valid domain, so a malformed input can never
    produce a selectivity outside ``[0, 1]`` or a negative fanout.
    """
    if prior_weight < 0:
        raise StatisticsError("prior_weight must be non-negative")
    w_obs = float(max(observed.sample_size, 0))
    if w_obs == 0.0:
        return prior
    total = prior_weight + w_obs
    if total <= 0.0:
        return observed
    selectivity = (
        prior_weight * prior.selectivity + w_obs * observed.selectivity
    ) / total
    fanout = (prior_weight * prior.fanout + w_obs * observed.fanout) / total
    return PredicateStatistics(
        column=prior.column,
        field=prior.field,
        selectivity=min(1.0, max(0.0, selectivity)),
        fanout=max(0.0, fanout),
        sample_size=prior.sample_size + observed.sample_size,
    )


class TextStatisticsRegistry:
    """The optimizer's store of per-predicate statistics.

    "The estimates thus obtained are maintained by the optimizer, and the
    sampling cost is amortized over queries with the same predicate."
    Keys are ``(column, field)`` pairs.
    """

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], PredicateStatistics] = {}

    def put(self, stats: PredicateStatistics) -> None:
        self._stats[(stats.column, stats.field)] = stats

    def get(self, column: str, field: str) -> PredicateStatistics:
        try:
            return self._stats[(column, field)]
        except KeyError:
            raise StatisticsError(
                f"no statistics for predicate {column!r} in {field!r}; "
                "sample it first (gateway.sampling) or register it explicitly"
            ) from None

    def has(self, column: str, field: str) -> bool:
        return (column, field) in self._stats

    def __len__(self) -> int:
        return len(self._stats)
