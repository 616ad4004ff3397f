"""Closing the estimator loop: q-error feedback statistics (ROADMAP item 3).

Section 5 ends with the [CDY] warning that probe-based plans are only
attractive "if the selectivity and fanout estimates are reliable" and
points at runtime optimization as the remedy.  ``core/adaptive.py``
implements the abort-and-fallback guard; this module makes the optimizer
*learn* from the misestimate it just paid for:

- :func:`qerror` and :class:`EstimateRecord` pair one estimated quantity
  with its measured actual; :class:`QErrorReport` aggregates them
  (max/median q-error, worst-offender ranking) over plan nodes, method
  costs, and predicate statistics;
- :class:`PredicateObservation` accumulates the per-predicate evidence
  execution already produced — searches sent, searches that matched,
  documents returned — for free (the :class:`~repro.gateway.costs.
  CostLedger` charged them anyway);
- :class:`FeedbackStore` persists those observations as JSON on disk,
  keyed by corpus fingerprint plus canonical predicate/query key, and
  blends them into future :class:`~repro.gateway.statistics.
  PredicateStatistics` with a configurable prior-vs-observed weighting.

The charge-identity contract (DESIGN invariant 14): feedback reads the
ledger and the result sets — it never issues a foreign call and never
alters what an executing plan charges.  Feedback changes *plan choice*,
not the accounting of the plan that runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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

#: Current on-disk payload format.
STORE_FORMAT = 1

#: Rolling caps: the store keeps the most recent entries, never grows
#: without bound across long-lived serving processes.
MAX_EVENTS = 256
MAX_METHOD_RUNS = 64

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

    label: str  # what was estimated ("node:TextJoin", "method:TS", ...)
    kind: str  # "node" | "method" | "predicate" | "abort"
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

    def add(self, record: EstimateRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def max_q(self) -> float:
        return max((record.q for record in self.records), default=1.0)

    @property
    def median_q(self) -> float:
        if not self.records:
            return 1.0
        ordered = sorted(record.q for record in self.records)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

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
    """Accumulated runtime evidence for one ``column in field`` predicate."""

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


def _check_number(value: Any, message: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        message,
    )
    number = float(value)
    _require(number == number and abs(number) != float("inf"), message)
    return number


class FeedbackStore:
    """Persistent estimate-vs-actual feedback, blended into planning.

    Three tables, all keyed under the observing corpus' fingerprint:

    - *predicates*: accumulated :class:`PredicateObservation` per
      ``column in field`` — the statistics the estimator blends;
    - *methods*: per canonical query key and method, predicted vs
      measured cost of completed executions;
    - *events*: notable misestimates (guard aborts with their true
      cause, re-optimizations), a bounded journal.

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
        self._predicates: Dict[str, Dict[str, Any]] = {}
        self._methods: Dict[str, Dict[str, Any]] = {}
        self._events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @staticmethod
    def _predicate_key(fingerprint: str, column: str, field_name: str) -> str:
        return f"{fingerprint}|{column}|{field_name}"

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
        key = self._predicate_key(fingerprint, column, field_name)
        with self._lock:
            entry = self._predicates.setdefault(
                key,
                {
                    "fingerprint": fingerprint,
                    "column": column,
                    "field": field_name,
                    "searches": 0,
                    "matched": 0,
                    "documents": 0.0,
                },
            )
            entry["searches"] += int(searches)
            entry["matched"] += min(max(int(matched), 0), int(searches))
            entry["documents"] += max(float(documents), 0.0)

    @staticmethod
    def _entry_observation(entry: Dict[str, Any]) -> PredicateObservation:
        return PredicateObservation(
            column=entry["column"],
            field=entry["field"],
            searches=entry["searches"],
            matched=entry["matched"],
            documents=entry["documents"],
        )

    def observation(
        self, fingerprint: str, column: str, field_name: str
    ) -> Optional[PredicateObservation]:
        """This corpus' accumulated observation, or None."""
        key = self._predicate_key(fingerprint, column, field_name)
        with self._lock:
            entry = self._predicates.get(key)
        if entry is None or entry["fingerprint"] != fingerprint:
            return None
        return self._entry_observation(entry)

    def observe_method(
        self,
        fingerprint: str,
        key: str,
        method: str,
        estimated_cost: float,
        actual_cost: float,
    ) -> None:
        """Record one completed method execution's predicted vs measured cost."""
        entry_key = f"{fingerprint}|{key}|{method}"
        with self._lock:
            entry = self._methods.setdefault(
                entry_key,
                {
                    "fingerprint": fingerprint,
                    "query": key,
                    "method": method,
                    "runs": [],
                },
            )
            entry["runs"].append(
                {"estimated": float(estimated_cost), "actual": float(actual_cost)}
            )
            del entry["runs"][:-MAX_METHOD_RUNS]

    def record_event(
        self,
        kind: str,
        label: str,
        estimated: float,
        actual: float,
        unit: str = "rows",
        detail: str = "",
    ) -> None:
        """Append one misestimate event (guard abort, re-optimization)."""
        with self._lock:
            self._events.append(
                {
                    "kind": kind,
                    "label": label,
                    "estimated": float(estimated),
                    "actual": float(actual),
                    "unit": unit,
                    "detail": detail,
                }
            )
            del self._events[:-MAX_EVENTS]

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> QErrorReport:
        """Everything graded: method runs and recorded misestimate events."""
        report = QErrorReport()
        with self._lock:
            methods = [dict(entry) for entry in self._methods.values()]
            events = [dict(event) for event in self._events]
        for entry in methods:
            for run in entry["runs"]:
                report.add(
                    EstimateRecord(
                        label=f"method:{entry['method']}",
                        kind="method",
                        estimated=run["estimated"],
                        actual=run["actual"],
                        unit="seconds",
                        detail=entry["query"],
                    )
                )
        for event in events:
            report.add(
                EstimateRecord(
                    label=event["label"],
                    kind=event["kind"],
                    estimated=event["estimated"],
                    actual=event["actual"],
                    unit=event["unit"],
                    detail=event["detail"],
                )
            )
        return report

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "predicates": len(self._predicates),
                "methods": len(self._methods),
                "events": len(self._events),
                "prior_weight": self.prior_weight,
            }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "format": STORE_FORMAT,
                "prior_weight": self.prior_weight,
                "predicates": {
                    key: dict(entry) for key, entry in self._predicates.items()
                },
                "methods": {
                    key: {
                        "fingerprint": entry["fingerprint"],
                        "query": entry["query"],
                        "method": entry["method"],
                        "runs": [dict(run) for run in entry["runs"]],
                    }
                    for key, entry in self._methods.items()
                },
                "events": [dict(event) for event in self._events],
            }

    @classmethod
    def from_payload(
        cls, payload: Any, path: Optional[str] = None
    ) -> "FeedbackStore":
        """Validate and hydrate a payload; corrupt input → FeedbackError."""
        _require(isinstance(payload, dict), "top level must be an object")
        _require(
            payload.get("format") == STORE_FORMAT,
            f"unsupported format {payload.get('format')!r}",
        )
        prior_weight = _check_number(
            payload.get("prior_weight", DEFAULT_PRIOR_WEIGHT),
            "prior_weight must be a finite number",
        )
        _require(prior_weight >= 0, "prior_weight must be non-negative")
        store = cls(path=path, prior_weight=prior_weight)

        predicates = payload.get("predicates", {})
        _require(isinstance(predicates, dict), "predicates must be an object")
        for key, entry in predicates.items():
            _require(isinstance(entry, dict), f"predicate entry {key!r}")
            for text_field in ("fingerprint", "column", "field"):
                _require(
                    isinstance(entry.get(text_field), str),
                    f"predicate entry {key!r} field {text_field!r}",
                )
            searches = _check_number(
                entry.get("searches"), f"predicate entry {key!r} searches"
            )
            matched = _check_number(
                entry.get("matched"), f"predicate entry {key!r} matched"
            )
            documents = _check_number(
                entry.get("documents"), f"predicate entry {key!r} documents"
            )
            _require(
                searches >= 1 and 0 <= matched <= searches and documents >= 0,
                f"predicate entry {key!r} counts out of range",
            )
            store._predicates[key] = {
                "fingerprint": entry["fingerprint"],
                "column": entry["column"],
                "field": entry["field"],
                "searches": int(searches),
                "matched": int(matched),
                "documents": documents,
            }

        methods = payload.get("methods", {})
        _require(isinstance(methods, dict), "methods must be an object")
        for key, entry in methods.items():
            _require(isinstance(entry, dict), f"method entry {key!r}")
            for text_field in ("fingerprint", "query", "method"):
                _require(
                    isinstance(entry.get(text_field), str),
                    f"method entry {key!r} field {text_field!r}",
                )
            runs = entry.get("runs")
            _require(isinstance(runs, list), f"method entry {key!r} runs")
            clean_runs = []
            for run in runs:
                _require(isinstance(run, dict), f"method entry {key!r} run")
                clean_runs.append(
                    {
                        "estimated": _check_number(
                            run.get("estimated"), f"method {key!r} estimated"
                        ),
                        "actual": _check_number(
                            run.get("actual"), f"method {key!r} actual"
                        ),
                    }
                )
            store._methods[key] = {
                "fingerprint": entry["fingerprint"],
                "query": entry["query"],
                "method": entry["method"],
                "runs": clean_runs[-MAX_METHOD_RUNS:],
            }

        events = payload.get("events", [])
        _require(isinstance(events, list), "events must be a list")
        for event in events:
            _require(isinstance(event, dict), "event must be an object")
            for text_field in ("kind", "label", "unit", "detail"):
                _require(
                    isinstance(event.get(text_field), str),
                    f"event field {text_field!r}",
                )
            store._events.append(
                {
                    "kind": event["kind"],
                    "label": event["label"],
                    "estimated": _check_number(
                        event.get("estimated"), "event estimated"
                    ),
                    "actual": _check_number(event.get("actual"), "event actual"),
                    "unit": event["unit"],
                    "detail": event["detail"],
                }
            )
        del store._events[:-MAX_EVENTS]
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
            f"{summary['methods']} methods, {summary['events']} events)"
        )
