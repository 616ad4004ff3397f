"""The cost model for foreign-join methods (Sections 4.1–4.3).

The model prices each join method from:

- the cost constants ``c_i, c_p, c_s, c_l, c_a`` (Section 4.1, Table 1);
- per-predicate selectivity ``s_i`` and fanout ``f_i`` under a
  *g*-correlated joint model (Section 4.2);
- relational-side statistics: ``N`` (joining tuples) and distinct counts
  ``N_J`` over column sets ``J``.

Useful expressions (Section 4.3), for ``n`` searches over columns ``J``:

- ``V(n, J) = n * F_{g,J}``           — total documents returned;
- ``U(n, J) = D * (1 - (1 - F/D)^n)`` — *distinct* documents returned;
- ``I(n, J) = n * sum_{i in J} f_i``  — postings processed (unit column
  width / one-document postings, as the paper assumes).

Text *selections* participate as a pseudo-predicate: their conjunction
has a known (measured or estimated) result size ``E_sel`` and postings
footprint ``I_sel``, which join the fanout pool for the g-correlated
joint fanout and add to the postings of every search that carries them.
Under the paper's validated 1-correlated model this makes a highly
selective selection cap every per-search result size — exactly the
effect seen in the Q1/Q3 experiments.

Formulas for TS and P+TS follow the paper verbatim; the RTP/SJ formula
details were left to the companion technical report ([CDY]), so we derive
them from the same components (each derivation is documented on the
function).  Long-form transmission is modeled uniformly: every method
that must deliver long-form pairs retrieves each distinct matching
document once at ``c_l`` — Section 7.2's "the number of long-form
documents transmitted is the same for both methods".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.query import ResultShape, TextJoinQuery
from repro.errors import StatisticsError
from repro.gateway.costs import CostConstants
from repro.gateway.statistics import PredicateStatistics, joint_fanout, joint_selectivity

__all__ = [
    "SelectionStatistics",
    "QueryCostInputs",
    "VectorCostInputs",
    "CostEstimate",
    "cost_ts",
    "cost_probe_phase",
    "cost_p_ts",
    "cost_rtp",
    "cost_sj",
    "cost_sj_rtp",
    "cost_p_rtp",
    "cost_probe_semijoin",
    "cost_vector_topk",
    "cost_vector_scan",
]


@dataclass(frozen=True)
class SelectionStatistics:
    """Aggregate statistics for the query's text-selection conjunction.

    ``result_size`` (``E_sel``) is the number of documents matching all
    text selections together; ``postings`` (``I_sel``) the inverted-list
    postings read to evaluate them; ``term_count`` the basic terms they
    occupy in each search (relevant to semi-join batching).
    """

    result_size: float = 0.0
    postings: float = 0.0
    term_count: int = 0
    present: bool = False

    @classmethod
    def absent(cls) -> "SelectionStatistics":
        return cls()


@dataclass
class QueryCostInputs:
    """Everything the Section 4.3 formulas need for one query.

    ``predicate_stats`` maps each join column to its
    :class:`PredicateStatistics`; ``distinct_counts`` maps frozensets of
    join columns to exact joint distinct counts when known (missing
    entries fall back to the paper's ``min(prod N_i, N)`` overestimate,
    which "ensures that probing is favored only when the default method
    ... is expected to perform significantly worse").
    """

    constants: CostConstants
    document_count: int  # D
    term_limit: int  # M
    g: int  # correlation parameter
    tuple_count: int  # N: joining tuples after the relational selection
    predicate_stats: Dict[str, PredicateStatistics]
    selection: SelectionStatistics = field(default_factory=SelectionStatistics.absent)
    distinct_counts: Dict[FrozenSet[str], int] = field(default_factory=dict)
    #: Batched-invocation limit when the text system supports the Section 8
    #: multi-query interface; ``None`` for a plain server.
    batch_limit: Optional[int] = None
    #: Fields visible in short-form results (``None`` = all).  RTP-family
    #: methods can only string-match predicates on visible fields.
    short_fields: Optional[FrozenSet[str]] = None
    #: The backend's predicate semantics.  The Section 3–5 method space
    #: is priced for Boolean sources only; the enumerator refuses these
    #: inputs for any other kind (per-backend method legality).  With
    #: ``batch_limit`` and ``short_fields``, the capability members a
    #: client carries under the same names and ``applies`` rules read.
    source_kind: str = "boolean"

    # ------------------------------------------------------------------
    # statistics accessors
    # ------------------------------------------------------------------
    @property
    def join_columns(self) -> Tuple[str, ...]:
        return tuple(self.predicate_stats)

    def stats_for(self, columns: Sequence[str]) -> List[PredicateStatistics]:
        out = []
        for column in columns:
            try:
                out.append(self.predicate_stats[column])
            except KeyError:
                raise StatisticsError(
                    f"no predicate statistics for column {column!r}"
                ) from None
        return out

    def distinct(self, columns: Sequence[str]) -> float:
        """``N_J``: distinct tuples in the projection over ``columns``.

        Exact when registered; otherwise ``min(prod_i N_i, N)``.
        """
        key = frozenset(columns)
        if key in self.distinct_counts:
            return float(self.distinct_counts[key])
        product = 1.0
        for column in columns:
            single = frozenset([column])
            if single in self.distinct_counts:
                product *= self.distinct_counts[single]
            else:
                raise StatisticsError(
                    f"no distinct count for column {column!r}"
                )
        return float(min(product, self.tuple_count))

    # ------------------------------------------------------------------
    # Section 4.3 expressions
    # ------------------------------------------------------------------
    def search_fanout(self, columns: Sequence[str]) -> float:
        """``F_{g,J}`` for a search carrying selections + predicates on J.

        The selection conjunction contributes its result size to the
        fanout pool (it behaves like one more predicate whose per-term
        fanout is ``E_sel``).
        """
        fanouts = [stats.fanout for stats in self.stats_for(columns)]
        if self.selection.present:
            fanouts.append(self.selection.result_size)
        return joint_fanout(fanouts, self.g, self.document_count)

    def probe_success(self, columns: Sequence[str]) -> float:
        """``S_{g,J}``: probability a probe on ``J`` succeeds.

        An empty selection result makes every probe fail.
        """
        selectivities = [stats.selectivity for stats in self.stats_for(columns)]
        if self.selection.present and self.selection.result_size <= 0:
            return 0.0
        return joint_selectivity(selectivities, self.g)

    def postings_per_search(self, columns: Sequence[str]) -> float:
        """Postings read by one search: selection lists + one list per pred."""
        postings = sum(stats.fanout for stats in self.stats_for(columns))
        if self.selection.present:
            postings += self.selection.postings
        return postings

    def total_documents(self, n: float, columns: Sequence[str]) -> float:
        """``V(n, J) = n * F_{g,J}``."""
        return n * self.search_fanout(columns)

    def distinct_documents(self, n: float, columns: Sequence[str]) -> float:
        """``U(n, J) = D (1 - (1 - F/D)^n)`` — distinct docs over n searches."""
        if n <= 0:
            return 0.0
        fanout = self.search_fanout(columns)
        d = float(self.document_count)
        if d <= 0:
            return 0.0
        ratio = min(max(fanout / d, 0.0), 1.0)
        return d * (1.0 - (1.0 - ratio) ** n)

    def expected_join_documents(self) -> float:
        """Distinct documents in the final join result (long-form count)."""
        return self.distinct_documents(
            self.distinct(self.join_columns), self.join_columns
        )


@dataclass(frozen=True)
class CostEstimate:
    """A priced plan fragment, broken down by cost component."""

    method: str
    invocation: float = 0.0
    processing: float = 0.0
    transmission_short: float = 0.0
    transmission_long: float = 0.0
    rtp: float = 0.0
    searches: float = 0.0  # predicted number of invocations

    @property
    def total(self) -> float:
        return (
            self.invocation
            + self.processing
            + self.transmission_short
            + self.transmission_long
            + self.rtp
        )

    def plus(self, other: "CostEstimate", method: Optional[str] = None) -> "CostEstimate":
        """Component-wise sum (for composing probe + substitution phases)."""
        return CostEstimate(
            method=method or self.method,
            invocation=self.invocation + other.invocation,
            processing=self.processing + other.processing,
            transmission_short=self.transmission_short + other.transmission_short,
            transmission_long=self.transmission_long + other.transmission_long,
            rtp=self.rtp + other.rtp,
            searches=self.searches + other.searches,
        )

    def __repr__(self) -> str:
        return f"CostEstimate({self.method}, total={self.total:.2f}s)"


def _long_form_cost(inputs: QueryCostInputs, query: TextJoinQuery) -> float:
    """Long-form retrieval cost, identical across methods (Section 7.2)."""
    if query.shape is ResultShape.PAIRS and query.long_form:
        return inputs.constants.long_form * inputs.expected_join_documents()
    return 0.0


# ----------------------------------------------------------------------
# method cost formulas
# ----------------------------------------------------------------------
def cost_ts(inputs: QueryCostInputs, query: TextJoinQuery) -> CostEstimate:
    """``C_TS = c_i n + c_p I(n,K) + c_s V(n,K)`` with ``n = N_K``.

    ``n`` is the number of distinct joining tuples over the join columns
    (the paper's distinct-only TS variant used in the experiments).
    """
    columns = query.join_columns
    n = inputs.distinct(columns)
    constants = inputs.constants
    return CostEstimate(
        method="TS",
        searches=n,
        invocation=constants.invocation * n,
        processing=constants.per_posting * n * inputs.postings_per_search(columns),
        transmission_short=constants.short_form * inputs.total_documents(n, columns),
        transmission_long=_long_form_cost(inputs, query),
    )


def cost_probe_phase(
    inputs: QueryCostInputs, query: TextJoinQuery, probe_columns: Sequence[str]
) -> CostEstimate:
    """``C_P = c_i N_J + c_p I(N_J, J) + c_s V(N_J, J)``.

    Probes request the short form, so they pay short-form transmission on
    every matching document (the paper's ``c_s V`` term).
    """
    n = inputs.distinct(probe_columns)
    constants = inputs.constants
    return CostEstimate(
        method="P",
        searches=n,
        invocation=constants.invocation * n,
        processing=constants.per_posting
        * n
        * inputs.postings_per_search(probe_columns),
        transmission_short=constants.short_form
        * inputs.total_documents(n, probe_columns),
    )


def cost_p_ts(
    inputs: QueryCostInputs, query: TextJoinQuery, probe_columns: Sequence[str]
) -> CostEstimate:
    """``C_{P+TS} = C_P + c_i R + c_p I(R,K) + c_s V(R,K)``, ``R = N_K S_{g,J}``.

    The substitution phase runs only for tuples whose probes succeed.
    """
    columns = query.join_columns
    probe = cost_probe_phase(inputs, query, probe_columns)
    survivors = inputs.distinct(columns) * inputs.probe_success(probe_columns)
    constants = inputs.constants
    substitution = CostEstimate(
        method="TS-phase",
        searches=survivors,
        invocation=constants.invocation * survivors,
        processing=constants.per_posting
        * survivors
        * inputs.postings_per_search(columns),
        transmission_short=constants.short_form
        * inputs.total_documents(survivors, columns),
        transmission_long=_long_form_cost(inputs, query),
    )
    bare = ",".join(column.split(".")[-1] for column in probe_columns)
    return probe.plus(substitution, method=f"P({bare})+TS")


def cost_rtp(inputs: QueryCostInputs, query: TextJoinQuery) -> CostEstimate:
    """One selection-only search, then ``c_a`` per (document, tuple) match.

    ``C_RTP = c_i + c_p I_sel + c_s E_sel + c_a E_sel N`` (derived; the
    paper omits the formula but describes exactly these components).
    """
    if not inputs.selection.present:
        raise StatisticsError("RTP requires text selections")
    constants = inputs.constants
    e_sel = inputs.selection.result_size
    return CostEstimate(
        method="RTP",
        searches=1,
        invocation=constants.invocation,
        processing=constants.per_posting * inputs.selection.postings,
        transmission_short=constants.short_form * e_sel,
        rtp=constants.rtp_per_document * e_sel * inputs.tuple_count,
        transmission_long=_long_form_cost(inputs, query),
    )


def _sj_batches(inputs: QueryCostInputs, query: TextJoinQuery) -> float:
    """Number of OR-batched searches: ``ceil(N_K k / (M - sel_terms))``."""
    columns = query.join_columns
    terms_per_conjunct = len(columns)
    capacity = inputs.term_limit - inputs.selection.term_count
    if capacity < terms_per_conjunct:
        raise StatisticsError(
            "semi-join conjunct does not fit in the term limit"
        )
    n_k = inputs.distinct(columns)
    return math.ceil(n_k * terms_per_conjunct / capacity) if n_k > 0 else 0.0


def cost_sj(inputs: QueryCostInputs, query: TextJoinQuery) -> CostEstimate:
    """Semi-join: few big searches; result is the distinct-document union.

    ``C_SJ = c_i n_b + c_p (I(N_K, K) + n_b I_sel) + c_s U(N_K, K)``.
    The postings term charges each conjunct's inverted lists once plus
    the selection lists once per batch (they are re-sent with every
    batch); transmission uses ``U`` because the batched result set is
    de-duplicated by the text system.
    """
    columns = query.join_columns
    constants = inputs.constants
    n_k = inputs.distinct(columns)
    batches = _sj_batches(inputs, query)
    conjunct_postings = n_k * sum(
        stats.fanout for stats in inputs.stats_for(columns)
    )
    selection_postings = batches * inputs.selection.postings
    return CostEstimate(
        method="SJ",
        searches=batches,
        invocation=constants.invocation * batches,
        processing=constants.per_posting * (conjunct_postings + selection_postings),
        transmission_short=constants.short_form
        * inputs.distinct_documents(n_k, columns),
    )


def cost_sj_rtp(inputs: QueryCostInputs, query: TextJoinQuery) -> CostEstimate:
    """``C_{SJ+RTP} = C_SJ + c_a U(N_K,K) N`` plus long-form retrieval."""
    base = cost_sj(inputs, query)
    columns = query.join_columns
    documents = inputs.distinct_documents(inputs.distinct(columns), columns)
    extra = CostEstimate(
        method="RTP-phase",
        rtp=inputs.constants.rtp_per_document * documents * inputs.tuple_count,
        transmission_long=_long_form_cost(inputs, query),
    )
    return base.plus(extra, method="SJ+RTP")


def cost_p_rtp(
    inputs: QueryCostInputs, query: TextJoinQuery, probe_columns: Sequence[str]
) -> CostEstimate:
    """Probes double as fetches; remaining predicates matched relationally.

    ``C_{P+RTP} = C_P(J) + c_a V(N_J, J) (N / N_J)`` plus long-form
    retrieval: each fetched document is compared against its probe
    group's tuples (average group size ``N / N_J``).
    """
    probe = cost_probe_phase(inputs, query, probe_columns)
    n_j = inputs.distinct(probe_columns)
    fetched = inputs.total_documents(n_j, probe_columns)
    group_size = inputs.tuple_count / n_j if n_j > 0 else 0.0
    extra = CostEstimate(
        method="RTP-phase",
        rtp=inputs.constants.rtp_per_document * fetched * group_size,
        transmission_long=_long_form_cost(inputs, query),
    )
    bare = ",".join(column.split(".")[-1] for column in probe_columns)
    return probe.plus(extra, method=f"P({bare})+RTP")


def cost_probe_semijoin(
    inputs: QueryCostInputs, query: TextJoinQuery, probe_columns: Sequence[str]
) -> CostEstimate:
    """Probing alone (the TUPLES-shaped reducer): exactly the probe phase."""
    probe = cost_probe_phase(inputs, query, probe_columns)
    bare = ",".join(column.split(".")[-1] for column in probe_columns)
    return CostEstimate(
        method=f"P({bare})",
        invocation=probe.invocation,
        processing=probe.processing,
        transmission_short=probe.transmission_short,
        searches=probe.searches,
    )


# ----------------------------------------------------------------------
# vector-backend method cost formulas (Section 8 / heterogeneous plans)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VectorCostInputs:
    """What the vector-backend strategies need for one ranked predicate.

    The Section 4.3 machinery does not transfer: a ranked predicate has
    no selectivity/fanout in the Boolean sense — its result size is the
    query's own ``top_k`` (or the threshold survivors), so the two
    strategies are priced directly from the backend's constants:

    - ``binding_count`` (``n``): distinct non-NULL join bindings;
    - ``postings_per_search``: mean inverted-list postings one ranked
      search reads (measured from per-binding document frequencies);
    - ``expected_results``: mean short-form documents one search returns
      (bounded above by ``top_k``);
    - ``scan_visible``: whether the ranked field travels in short forms,
      which is what lets V-SCAN score locally (the RTP applicability
      condition, transplanted).
    """

    constants: CostConstants
    document_count: int  # D
    binding_count: float  # n
    postings_per_search: float
    expected_results: float
    top_k: Optional[int] = 10
    threshold: float = 0.0
    scan_visible: bool = True

    #: These inputs price the ``"vector"`` method space only.
    source_kind = "vector"

    @property
    def short_fields(self) -> Optional[FrozenSet[str]]:
        """What ``applies`` rules read: one ranked field, so one bit of
        visibility — everything (``None``) or nothing."""
        return None if self.scan_visible else frozenset()

    def __post_init__(self) -> None:
        if self.binding_count < 0:
            raise StatisticsError("binding count must be non-negative")
        if self.document_count < 0:
            raise StatisticsError("document count must be non-negative")
        if self.postings_per_search < 0:
            raise StatisticsError("postings per search must be non-negative")
        if self.expected_results < 0:
            raise StatisticsError("expected results must be non-negative")


def cost_vector_topk(inputs: VectorCostInputs) -> CostEstimate:
    """One ranked search per distinct binding (the TS analogue).

    ``C_V-TOPK = c_i n + c_p n I + c_s n E`` where ``I`` is the mean
    postings per search and ``E <= top_k`` the mean result size.
    """
    n = inputs.binding_count
    constants = inputs.constants
    k = "all" if inputs.top_k is None else inputs.top_k
    return CostEstimate(
        method=f"V-TOPK(k={k})",
        searches=n,
        invocation=constants.invocation * n,
        processing=constants.per_posting * n * inputs.postings_per_search,
        transmission_short=constants.short_form * n * inputs.expected_results,
    )


def cost_vector_scan(inputs: VectorCostInputs) -> CostEstimate:
    """One corpus dump, then local scoring per (document, binding) pair.

    ``C_V-SCAN = c_i + c_s D + c_a D n``: a single empty-query search at
    a negative threshold transmits every short form once (no postings —
    nothing is looked up), after which each binding is scored locally
    against all ``D`` documents at ``c_a`` apiece (the RTP analogue).
    Only applicable when the ranked field is short-form visible.
    """
    if not inputs.scan_visible:
        raise StatisticsError(
            "V-SCAN needs the ranked field in short-form results"
        )
    constants = inputs.constants
    d = float(inputs.document_count)
    return CostEstimate(
        method="V-SCAN",
        searches=1,
        invocation=constants.invocation,
        transmission_short=constants.short_form * d,
        rtp=constants.rtp_per_document * d * inputs.binding_count,
    )
