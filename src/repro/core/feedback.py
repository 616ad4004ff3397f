"""Closing the estimator loop: q-error feedback statistics (ROADMAP item 3).

Section 5 ends with the [CDY] warning that probe-based plans are only
attractive "if the selectivity and fanout estimates are reliable" and
points at runtime optimization as the remedy.  ``core/adaptive.py``
implements the abort-and-fallback guard; this module makes the optimizer
*learn* from the misestimate it just paid for:

- :class:`EstimateRecord` is the one shape of "estimated X, measured
  Y": a plan node's rows or cost (``PlanExecution.estimates``), a
  completed method's predicted vs charged seconds, a guard abort's
  predicted vs fetched documents; :func:`qerror` grades one and
  :class:`QErrorReport` aggregates them (max/median q-error,
  worst-offender ranking);
- :class:`PredicateObservation` accumulates the per-predicate evidence
  execution already produced — searches sent, searches that matched,
  documents returned — for free (the :class:`~repro.gateway.costs.
  CostLedger` charged them anyway);
- :class:`FeedbackStore` persists the observations (keyed by corpus
  fingerprint, column and field) and a bounded journal of records as
  JSON on disk, and blends the observations into future
  :class:`~repro.gateway.statistics.PredicateStatistics` with a
  configurable prior-vs-observed weighting.

The charge-identity contract (DESIGN invariant 14): feedback reads the
ledger and the result sets — it never issues a foreign call and never
alters what an executing plan charges.  Feedback changes *plan choice*,
not the accounting of the plan that runs.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import tempfile
import threading
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple, get_type_hints

from repro.errors import FeedbackError
from repro.gateway.sampling import observed_predicate_statistics
from repro.gateway.statistics import PredicateStatistics, blend_statistics

__all__ = [
    "qerror",
    "EstimateRecord",
    "QErrorReport",
    "PredicateObservation",
    "FeedbackStore",
    "corpus_fingerprint",
    "query_key",
]

#: Current on-disk payload format (format 1 still loads, rewritten).
STORE_FORMAT = 2

#: Rolling cap on the record journal: the store keeps the most recent
#: records, never grows without bound across long-lived serving processes.
MAX_RECORDS = 256

#: Default equivalent sample size granted to the prior estimate when
#: blending (16 ~ one short sampling round: observations need comparable
#: evidence before they move the estimate materially).
DEFAULT_PRIOR_WEIGHT = 16.0


def qerror(estimated: float, actual: float, floor: float = 1.0) -> float:
    """The q-error ``max(est/act, act/est)`` with both sides floored.

    The floor keeps the ratio defined when either side is zero (an
    estimated-empty result that came back non-empty is exactly the case
    feedback must flag, not crash on).  1.0 is the natural floor for
    cardinalities; pass a smaller one for quantities measured in seconds.
    """
    if floor <= 0:
        raise FeedbackError("qerror floor must be positive")
    est = max(abs(estimated), floor)
    act = max(abs(actual), floor)
    return max(est / act, act / est)


@dataclass(frozen=True)
class EstimateRecord:
    """One estimated quantity paired with its measured actual."""

    label: str  # what was estimated ("TextJoin[TS]", "method:TS", ...)
    kind: str  # "node" | "method" | "abort"
    estimated: float
    actual: float
    unit: str = "rows"  # "rows" | "seconds" | "documents" | "fanout"
    detail: str = ""

    @property
    def q(self) -> float:
        floor = 0.001 if self.unit == "seconds" else 1.0
        return qerror(self.estimated, self.actual, floor=floor)


@dataclass
class QErrorReport:
    """Aggregated estimate-vs-actual records for one or many runs."""

    records: List[EstimateRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def max_q(self) -> float:
        return max((record.q for record in self.records), default=1.0)

    @property
    def median_q(self) -> float:
        if not self.records:
            return 1.0
        return statistics.median(record.q for record in self.records)

    def worst(self, n: int = 5) -> List[EstimateRecord]:
        """The ``n`` records with the largest q-error, worst first."""
        return sorted(self.records, key=lambda r: r.q, reverse=True)[:n]

    def render(self, top: int = 10) -> str:
        """Human-readable report: summary line plus worst offenders."""
        from repro.bench.reporting import ascii_table

        lines = [
            f"{len(self.records)} estimate/actual pairs, "
            f"median q-error {self.median_q:.2f}, max {self.max_q:.2f}"
        ]
        if self.records:
            rows = [
                [
                    record.label,
                    record.kind,
                    round(record.estimated, 3),
                    round(record.actual, 3),
                    record.unit,
                    round(record.q, 2),
                ]
                for record in self.worst(top)
            ]
            lines.append(
                ascii_table(
                    ["label", "kind", "estimated", "actual", "unit", "q"],
                    rows,
                    title="Worst offenders (by q-error)",
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PredicateObservation:
    """Accumulated runtime evidence for one ``column in field`` predicate,
    observed against the corpus ``fingerprint`` names."""

    fingerprint: str
    column: str
    field: str
    searches: int
    matched: int
    documents: float

    def statistics(self) -> PredicateStatistics:
        """The observation as well-formed :class:`PredicateStatistics`."""
        return observed_predicate_statistics(
            self.column, self.field, self.searches, self.matched, self.documents
        )


def corpus_fingerprint(server: Any) -> str:
    """A stable identity for the corpus feedback was observed against.

    Combines document count, the store's mutation version, and the field
    vocabulary — any corpus mutation or swap changes at least one of
    them, so stale observations are never blended into a different
    collection's estimates.  Reads contract members only, so every view
    of one corpus (in process, remote, sharded) yields the same string.
    """
    fields = ",".join(sorted(server.field_names))
    return f"D{server.document_count}.v{server.data_version}.f[{fields}]"


def query_key(query: Any) -> str:
    """A canonical key for a text-join query's search-expression shape.

    Join predicates are instantiated per tuple at run time, so the key
    uses their *template* (``column in field``, sorted) plus the
    canonical selection conjunction — the same for every tuple the query
    substitutes, and stable across predicate declaration order.
    """
    predicates = ";".join(
        sorted(f"{p.column} in {p.field}" for p in query.join_predicates)
    )
    selections = ""
    if getattr(query, "text_selections", ()):
        from repro.core.joinmethods.base import selection_node

        nodes = [selection_node(s) for s in query.text_selections]
        selections = " AND ".join(sorted(node.to_expression() for node in nodes))
    return f"{predicates}|{selections}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FeedbackError(f"feedback store payload invalid: {message}")


def _finite(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _checked(cls: type, entry: Any) -> Any:
    """One payload entry as a ``cls`` dataclass, every field type-checked.

    The entry must name exactly ``cls``'s fields; text fields must be
    strings and numeric fields finite numbers (booleans, NaN and infinity
    are refused, integer fields refuse fractions).
    """
    name = cls.__name__
    _require(isinstance(entry, dict), f"{name} entry must be an object")
    types = get_type_hints(cls)
    _require(set(entry) == set(types), f"{name} entry fields {sorted(entry)}")
    values = {}
    for key, kind in types.items():
        value = entry[key]
        if kind is str:
            _require(isinstance(value, str), f"{name} {key} must be text")
        else:
            _require(
                _finite(value) and (kind is float or value == int(value)),
                f"{name} {key} must be a finite {kind.__name__}",
            )
            value = kind(value)
        values[key] = value
    return cls(**values)


def _format1_as_format2(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A format-1 payload rewritten as format 2.

    Format 1 kept predicates in an object keyed by a joined string (the
    key is dropped: each entry's own fields name it), method runs grouped
    per query and method, and events beside them; runs and events become
    estimate records, runs first, the order format 1 reported them in.
    """
    predicates = payload.get("predicates", {})
    methods = payload.get("methods", {})
    events = payload.get("events", [])
    _require(
        isinstance(predicates, dict)
        and isinstance(methods, dict)
        and isinstance(events, list),
        "format 1 tables must be two objects and a list",
    )
    try:
        records = [
            {
                "label": "method:" + entry["method"],
                "kind": "method",
                "estimated": run["estimated"],
                "actual": run["actual"],
                "unit": "seconds",
                "detail": entry["query"],
            }
            for entry in methods.values()
            for run in entry["runs"]
        ]
    except (KeyError, TypeError) as error:
        raise FeedbackError(
            f"feedback store payload invalid: format 1 method entry {error!r}"
        ) from None
    records.extend(events)
    return {
        "format": STORE_FORMAT,
        "prior_weight": payload.get("prior_weight", DEFAULT_PRIOR_WEIGHT),
        "predicates": list(predicates.values()),
        "records": records,
    }


class FeedbackStore:
    """Persistent estimate-vs-actual feedback, blended into planning.

    Two tables:

    - *predicates*: one accumulated :class:`PredicateObservation` per
      ``(fingerprint, column, field)`` — the statistics the estimator
      blends, never applied to another corpus;
    - *records*: a journal of the most recent :data:`MAX_RECORDS`
      :class:`EstimateRecord` s — completed methods' predicted vs
      measured cost, guard aborts with their true cause, experiment
      runs — which :meth:`report` grades.

    Thread-safe: serving workers may record concurrently.  Persistence
    is explicit (:meth:`save`) and atomic (temp file + rename); loading
    a corrupt or truncated file raises :class:`FeedbackError` — the
    store never degrades into silently wrong estimates.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        prior_weight: float = DEFAULT_PRIOR_WEIGHT,
    ) -> None:
        if prior_weight < 0:
            raise FeedbackError("prior_weight must be non-negative")
        self.path = path
        self.prior_weight = float(prior_weight)
        self._lock = threading.RLock()
        self._predicates: Dict[Tuple[str, str, str], PredicateObservation] = {}
        self._records: Deque[EstimateRecord] = deque(maxlen=MAX_RECORDS)

    def observe_predicate(
        self,
        fingerprint: str,
        column: str,
        field_name: str,
        searches: int,
        matched: int,
        documents: float,
    ) -> None:
        """Fold one run's evidence for ``column in field`` into the store."""
        if searches < 1:
            return
        key = (fingerprint, column, field_name)
        with self._lock:
            seen = self._predicates.get(key) or PredicateObservation(
                *key, searches=0, matched=0, documents=0.0
            )
            self._predicates[key] = replace(
                seen,
                searches=seen.searches + int(searches),
                matched=seen.matched + min(max(int(matched), 0), int(searches)),
                documents=seen.documents + max(float(documents), 0.0),
            )

    def observation(
        self, fingerprint: str, column: str, field_name: str
    ) -> Optional[PredicateObservation]:
        """This corpus' accumulated observation, or None."""
        with self._lock:
            return self._predicates.get((fingerprint, column, field_name))

    def record(self, record: EstimateRecord) -> None:
        """Journal one estimate-vs-actual pair (the oldest past the cap go)."""
        with self._lock:
            self._records.append(record)

    def blend(
        self, prior: PredicateStatistics, fingerprint: str
    ) -> PredicateStatistics:
        """The prior blended with this corpus' observations (if any).

        Observations recorded under a different fingerprint never apply:
        a mutated or swapped corpus falls back to the prior untouched.
        """
        observation = self.observation(fingerprint, prior.column, prior.field)
        if observation is None:
            return prior
        return blend_statistics(
            prior, observation.statistics(), self.prior_weight
        )

    def report(self) -> QErrorReport:
        """Every journalled record, graded."""
        with self._lock:
            return QErrorReport(list(self._records))

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "predicates": len(self._predicates),
                "records": len(self._records),
                "prior_weight": self.prior_weight,
            }

    def to_payload(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "format": STORE_FORMAT,
                "prior_weight": self.prior_weight,
                "predicates": [
                    asdict(entry) for entry in self._predicates.values()
                ],
                "records": [asdict(record) for record in self._records],
            }

    @classmethod
    def from_payload(
        cls, payload: Any, path: Optional[str] = None
    ) -> "FeedbackStore":
        """Validate and hydrate a payload; corrupt input → FeedbackError."""
        _require(isinstance(payload, dict), "top level must be an object")
        if payload.get("format") == 1:
            payload = _format1_as_format2(payload)
        _require(
            payload.get("format") == STORE_FORMAT,
            f"unsupported format {payload.get('format')!r}",
        )
        prior_weight = payload.get("prior_weight", DEFAULT_PRIOR_WEIGHT)
        _require(
            _finite(prior_weight) and prior_weight >= 0,
            "prior_weight must be a finite non-negative number",
        )
        store = cls(path=path, prior_weight=prior_weight)
        predicates = payload.get("predicates", [])
        records = payload.get("records", [])
        _require(
            isinstance(predicates, list) and isinstance(records, list),
            "predicates and records must be lists",
        )
        for entry in predicates:
            observation = _checked(PredicateObservation, entry)
            key = (observation.fingerprint, observation.column, observation.field)
            _require(
                observation.searches >= 1
                and 0 <= observation.matched <= observation.searches
                and observation.documents >= 0,
                f"predicate {key!r} counts out of range",
            )
            _require(key not in store._predicates, f"duplicate predicate {key!r}")
            store._predicates[key] = observation
        store._records.extend(_checked(EstimateRecord, entry) for entry in records)
        return store

    def save(self, path: Optional[str] = None) -> str:
        """Write the store atomically; returns the path written."""
        target = path or self.path
        if target is None:
            raise FeedbackError("no path to save the feedback store to")
        payload = self.to_payload()
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".feedback-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                json.dump(payload, out, indent=1, sort_keys=True)
            os.replace(temp_path, target)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.path = target
        return target

    @classmethod
    def load(cls, path: str) -> "FeedbackStore":
        """Read a store from disk; corrupt/truncated → FeedbackError."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise FeedbackError(f"no feedback store at {path!r}") from None
        except (OSError, ValueError) as error:
            raise FeedbackError(
                f"feedback store {path!r} unreadable: {error}"
            ) from None
        return cls.from_payload(payload, path=path)

    @classmethod
    def open(
        cls, path: str, prior_weight: float = DEFAULT_PRIOR_WEIGHT
    ) -> "FeedbackStore":
        """Load ``path`` if it exists, else a fresh store bound to it."""
        if os.path.exists(path):
            return cls.load(path)
        return cls(path=path, prior_weight=prior_weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeedbackStore):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __repr__(self) -> str:
        summary = self.summary()
        return (
            f"FeedbackStore({summary['predicates']} predicates, "
            f"{summary['records']} records)"
        )
