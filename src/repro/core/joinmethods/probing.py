"""Probing-based join methods (P+TS, P+RTP, probe-as-semi-join) — Section 3.3.

A *probe* on a column set ``P`` is the query obtained by removing all
join predicates except those on ``P`` (text selections stay), asking only
whether any document matches.  If the probe instantiated with tuple ``t``
fails, every tuple agreeing with ``t`` on ``P`` yields a fail-query — so
one cheap probe can prune many expensive full searches.

Three methods live here:

- :class:`ProbeTupleSubstitution` (P+TS) — the paper's cache-based
  algorithm: run the full instantiated search first; after a *failure*,
  send the probe (unless cached) so future tuples in the same probe
  group are skipped.
- :class:`ProbeRtp` (P+RTP) — one probe per distinct probe-group; the
  probe's own short-form result set supplies the documents, which are
  matched against the group's tuples relationally for the remaining
  join predicates (Example 3.6).
- :class:`ProbeSemiJoin` — probing alone, "adequate for a semi-join of
  the relation with the text".  With ``probe_columns`` = all join
  columns it computes the exact semi-join; with a proper subset it is
  the *reducer* used between relational joins in PrL trees (its output
  is a superset of the true semi-join, filtered later at the text-join
  node).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.joinmethods.base import (
    JoinContext,
    JoinMethod,
    MethodExecution,
    finalize_execution,
    group_by_columns,
    instantiate_predicates,
    joining_rows,
    rtp_fields_available,
    rtp_match_pairs,
    selection_nodes,
)
from repro.core.query import JoinedPair, ResultShape, TextJoinQuery
from repro.errors import JoinMethodError, PlanError
from repro.relational.row import Row
from repro.textsys.query import and_all

__all__ = ["ProbeCache", "ProbeTupleSubstitution", "ProbeRtp", "ProbeSemiJoin"]


class ProbeCache:
    """Remembers past probe outcomes for one query execution.

    Keyed by the tuple's projection over the probing columns; ensures no
    duplicate probe is ever sent (Section 3.3's cache).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[object, ...], bool] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple[object, ...]) -> Optional[bool]:
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: Tuple[object, ...], success: bool) -> None:
        self._entries[key] = success

    def __len__(self) -> int:
        return len(self._entries)


def _validate_probe_columns(
    query: TextJoinQuery, probe_columns: Sequence[str]
) -> Tuple[str, ...]:
    columns = tuple(probe_columns)
    if not columns:
        raise PlanError("probe_columns must be non-empty")
    unknown = set(columns) - set(query.join_columns)
    if unknown:
        raise PlanError(
            f"probe columns {sorted(unknown)} are not join columns of the query"
        )
    if len(set(columns)) != len(columns):
        raise PlanError("probe columns must be distinct")
    return columns


def _method_label(base: str, probe_columns: Tuple[str, ...]) -> str:
    bare = ",".join(column.split(".")[-1] for column in probe_columns)
    return f"P({bare})+{base}" if base else f"P({bare})"


class ProbeTupleSubstitution(JoinMethod):
    """P+TS: tuple substitution with probe-cached fail-query avoidance.

    Two execution orders are provided:

    - ``probe_first=True`` (default): for each new probe group, send the
      probe first and run full searches only for groups whose probe
      succeeded.  This matches the Section 4.3 cost formula exactly —
      ``C_P (one probe per distinct probe group) + c_i R`` full searches.
    - ``probe_first=False``: the Section 3.3 pseudo-code order — run the
      full instantiated search first and send a probe only after a
      failure (saving the probe for groups that succeed immediately, at
      the price of one wasted full search per failing probe group).
      With Section 3.3's grouped-relation refinement, "a probe is sent
      only if there is at least another tuple in the relation with the
      same values in the probing columns as the tuple which resulted in
      a fail-query": a probe no later group reads is skipped, so results
      cannot change.
    """

    def __init__(
        self, probe_columns: Sequence[str], probe_first: bool = True
    ) -> None:
        self.probe_columns = tuple(probe_columns)
        self.probe_first = probe_first

    @property
    def name(self) -> str:
        return _method_label("TS", self.probe_columns)

    def applies(self, query: TextJoinQuery, source) -> bool:
        """Probing needs the probe columns to be a subset of the join columns.

        Probing pays off when there are *multiple* join predicates (so the
        probe is cheaper/more general than the full query); with
        ``probe_columns`` equal to all join columns it degenerates to TS
        with extra bookkeeping, which the optimizer never picks but which
        remains correct.
        """
        try:
            _validate_probe_columns(query, self.probe_columns)
        except PlanError:
            return False
        return True

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        probe_columns = _validate_probe_columns(query, self.probe_columns)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        rows = joining_rows(context, query)
        selections = selection_nodes(query)
        probe_predicates = query.predicates_on(probe_columns)
        cache = ProbeCache()
        pairs: List[JoinedPair] = []

        # For the grouped-relation refinement (full-first order only):
        # how many distinct full substitutions share each probe key?  A
        # probe can only pay off when that count exceeds one.
        groups = group_by_columns(rows, query.join_columns)
        probe_key_spread: Dict[Tuple[object, ...], int] = {}
        if not self.probe_first:
            for group in groups.values():
                spread_key = tuple(group[0][column] for column in probe_columns)
                probe_key_spread[spread_key] = probe_key_spread.get(spread_key, 0) + 1

        with context.client.trace_phase("probe"):
            for key, group in groups.items():
                representative = group[0]
                probe_key = tuple(
                    representative[column] for column in probe_columns
                )

                # A cached fail entry prunes the group outright.
                if cache.get(probe_key) is False:
                    continue

                instantiated = instantiate_predicates(
                    query.join_predicates, representative
                )
                if instantiated is None:
                    continue

                if self.probe_first and cache.get(probe_key) is None:
                    probe_nodes = instantiate_predicates(
                        probe_predicates, representative
                    )
                    if probe_nodes is None:
                        continue
                    probe_success = context.client.probe(
                        and_all(selections + probe_nodes)
                    )
                    cache.put(probe_key, probe_success)
                    if not probe_success:
                        continue

                # Instantiate the full query, as in tuple substitution.
                with context.client.trace_phase("TS"):
                    result = context.client.search(
                        and_all(selections + instantiated)
                    )
                if not result.is_empty:
                    for document in result:
                        for row in group:
                            pairs.append(JoinedPair(row, document))
                    # A successful full query marks the probe entry success
                    # — no probe needs to be sent.
                    cache.put(probe_key, True)
                    continue

                # The full query failed.  Send the probe only if no entry
                # exists yet, so no duplicate probes are generated.
                if cache.get(probe_key) is not None:
                    continue
                if probe_key_spread[probe_key] <= 1:
                    # No other substitution shares this probe key: the
                    # probe could prune nothing (the grouped refinement).
                    continue
                probe_nodes = instantiate_predicates(
                    probe_predicates, representative
                )
                if probe_nodes is None:
                    continue
                probe_success = context.client.probe(
                    and_all(selections + probe_nodes)
                )
                cache.put(probe_key, probe_success)

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )


class ProbeRtp(JoinMethod):
    """P+RTP: probes double as semi-join fetches, then relational matching.

    One probe is sent per distinct probe-group.  A successful probe's
    short-form result set is exactly the documents matching the text
    selections plus the probe-column predicates for that group; the
    remaining join predicates are then evaluated with SQL string matching
    against the group's tuples.

    ``fetch_cap`` is the runtime guard discussed at the end of Section 5:
    if the selectivity/fanout estimates were unreliable and a probe
    fetches more documents than the cap, the method aborts with
    :class:`JoinMethodError` so a re-optimization can pick another plan.
    """

    def __init__(
        self, probe_columns: Sequence[str], fetch_cap: Optional[int] = None
    ) -> None:
        self.probe_columns = tuple(probe_columns)
        if fetch_cap is not None and fetch_cap < 1:
            raise PlanError("fetch_cap must be positive when given")
        self.fetch_cap = fetch_cap

    @property
    def name(self) -> str:
        return _method_label("RTP", self.probe_columns)

    def applies(self, query: TextJoinQuery, source) -> bool:
        try:
            _validate_probe_columns(query, self.probe_columns)
        except PlanError:
            return False
        # Only the non-probe predicates are string-matched relationally;
        # their fields must be visible in the short form.
        remaining = tuple(
            predicate
            for predicate in query.join_predicates
            if predicate.column not in self.probe_columns
        )
        return rtp_fields_available(source, remaining)

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        probe_columns = _validate_probe_columns(query, self.probe_columns)
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        rows = joining_rows(context, query)
        selections = selection_nodes(query)
        probe_predicates = query.predicates_on(probe_columns)
        remaining_predicates = tuple(
            predicate
            for predicate in query.join_predicates
            if predicate.column not in probe_columns
        )
        pairs: List[JoinedPair] = []
        fetched = 0
        probes_sent = 0
        successes = 0
        tokens: Dict[str, List[str]] = {}

        for key, group in group_by_columns(rows, probe_columns).items():
            with context.client.trace_phase("probe"):
                probe_nodes = instantiate_predicates(probe_predicates, group[0])
                if probe_nodes is None:
                    continue
                result = context.client.search(
                    and_all(selections + probe_nodes)
                )
            probes_sent += 1
            if result.is_empty:
                continue
            successes += 1
            fetched += len(result)
            if self.fetch_cap is not None and fetched > self.fetch_cap:
                error = JoinMethodError(
                    f"{self.name}: fetched {fetched} documents, cap is "
                    f"{self.fetch_cap}; estimates were unreliable"
                )
                # What the guard actually saw before tripping: runtime
                # re-optimization (core/adaptive) turns these counts into
                # observed statistics, and the feedback store records the
                # abort's true cause as a q-error event.
                error.observed = {
                    "probe_columns": probe_columns,
                    "fields": {
                        predicate.column: predicate.field
                        for predicate in probe_predicates
                    },
                    "probes": probes_sent,
                    "successes": successes,
                    "fetched": fetched,
                }
                raise error
            with context.client.trace_phase("RTP"):
                pairs.extend(
                    rtp_match_pairs(
                        context, list(result), group, remaining_predicates, tokens
                    )
                )

        return finalize_execution(
            self.name, query, context, pairs, ledger_before, started_at
        )


class ProbeSemiJoin(JoinMethod):
    """Probing alone: the TUPLES-shaped (semi-join / reducer) method.

    Sends one probe per distinct probe-group and keeps the tuples of
    succeeding groups.  Exact when ``probe_columns`` covers every join
    column; a (sound) over-approximation otherwise — failed probes never
    prune a joining tuple, per the probe soundness property.
    """

    def __init__(self, probe_columns: Optional[Sequence[str]] = None) -> None:
        #: None means "all join columns" (resolved per query at run time).
        self.probe_columns = tuple(probe_columns) if probe_columns else None

    @property
    def name(self) -> str:
        if self.probe_columns is None:
            return "P(all)"
        return _method_label("", self.probe_columns)

    def applies(self, query: TextJoinQuery, source) -> bool:
        if query.shape is not ResultShape.TUPLES:
            return False
        if self.probe_columns is None:
            return True
        try:
            _validate_probe_columns(query, self.probe_columns)
        except PlanError:
            return False
        return True

    def is_exact_for(self, query: TextJoinQuery) -> bool:
        """True when the probe covers every join predicate of the query."""
        if self.probe_columns is None:
            return True
        return set(self.probe_columns) == set(query.join_columns)

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        self.check_applicable(query, context)
        probe_columns = (
            query.join_columns
            if self.probe_columns is None
            else _validate_probe_columns(query, self.probe_columns)
        )
        started_at = time.perf_counter()
        ledger_before = context.client.ledger.snapshot()

        rows = joining_rows(context, query)
        selections = selection_nodes(query)
        probe_predicates = query.predicates_on(probe_columns)
        kept: List[Row] = []

        with context.client.trace_phase("probe"):
            for key, group in group_by_columns(rows, probe_columns).items():
                probe_nodes = instantiate_predicates(probe_predicates, group[0])
                if probe_nodes is None:
                    continue
                if context.client.probe(and_all(selections + probe_nodes)):
                    kept.extend(group)

        execution = MethodExecution(method=self.name, shape=ResultShape.TUPLES)
        execution.tuples = kept
        execution.cost = context.client.ledger.diff(ledger_before)
        execution.wall_seconds = time.perf_counter() - started_at
        return execution
