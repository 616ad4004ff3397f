"""The text-join query model (Section 2.2/2.3).

A :class:`TextJoinQuery` is the single-foreign-join building block: a
conjunctive query over one stored relation and one external text source,
with

- an optional relational selection (``student.area = 'AI'``),
- zero or more **text selections** — constant predicates on the text
  source (``'belief update' in mercury.title``),
- one or more **foreign join predicates** — ``<relation column> in
  <text field>`` (``student.name in mercury.author``),
- a requested **result shape**: full join pairs, docids only (the query
  itself is a semi-join, as in Q2), or relation tuples only (semi-join of
  the relation by the text source, the reduction used inside multi-join
  plans).

Multi-join queries (Section 6) are modeled separately in
``repro.core.optimizer``; they embed ``TextJoinQuery``-style predicate
sets over several relations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.expressions import Expression
from repro.relational.row import Row
from repro.textsys.documents import Document

__all__ = [
    "TextSelection",
    "TextJoinPredicate",
    "VectorJoinPredicate",
    "ResultShape",
    "TextJoinQuery",
    "JoinedPair",
]


@dataclass(frozen=True)
class TextSelection:
    """A constant selection on the text source: ``'<term>' in <field>``.

    ``term`` is raw text — a word, a phrase, or a truncated word with a
    trailing ``?`` (the text system's basic-term forms).
    """

    term: str
    field: str

    def __post_init__(self) -> None:
        if not self.term:
            raise PlanError("text selection term must be non-empty")
        if not self.field:
            raise PlanError("text selection field must be non-empty")

    def __repr__(self) -> str:
        return f"'{self.term}' in {self.field}"


@dataclass(frozen=True)
class TextJoinPredicate:
    """A foreign join predicate: ``<relation column> in <text field>``."""

    column: str  # qualified relational column, e.g. 'student.name'
    field: str  # text field name, e.g. 'author'

    def __post_init__(self) -> None:
        if not self.column:
            raise PlanError("join predicate column must be non-empty")
        if not self.field:
            raise PlanError("join predicate field must be non-empty")

    def __repr__(self) -> str:
        return f"{self.column} in {self.field}"


@dataclass(frozen=True)
class VectorJoinPredicate:
    """A *ranked* foreign join predicate against a vector backend.

    ``<relation column> ~ <ranked field>``: each joining tuple's column
    value becomes a bag-of-words similarity query against the backend's
    ranked field, answered as the top-``k`` documents scoring strictly
    above ``threshold``.  Unlike :class:`TextJoinPredicate` this match
    is not monotone in the query terms (Section 8), so it gets its own
    strategy space (V-TOPK / V-SCAN) and never the Section 3 methods.
    """

    column: str  # qualified relational column, e.g. 'student.interests'
    field: str  # ranked text field name, e.g. 'abstract'
    top_k: Optional[int] = 10
    threshold: float = 0.0

    #: The method space (and backend kind) that can answer this predicate.
    source_kind = "vector"

    def __post_init__(self) -> None:
        if not self.column:
            raise PlanError("vector join predicate column must be non-empty")
        if not self.field:
            raise PlanError("vector join predicate field must be non-empty")
        if self.top_k is not None and self.top_k < 1:
            raise PlanError("top_k must be positive when given")

    def __repr__(self) -> str:
        k = "all" if self.top_k is None else self.top_k
        return f"{self.column} ~ {self.field} (k={k}, t>{self.threshold!r})"


class ResultShape(enum.Enum):
    """What a text-join query must deliver."""

    PAIRS = "pairs"  # (relation tuple, document) join results
    DOCIDS = "docids"  # distinct matching docids (the query is a semi-join)
    TUPLES = "tuples"  # distinct relation tuples with at least one match


@dataclass(frozen=True)
class JoinedPair:
    """One join result: a relation tuple paired with a matching document."""

    row: Row
    document: Document

    def key(self) -> Tuple[Tuple[object, ...], str]:
        """A hashable identity for result comparison across join methods."""
        return (self.row.values, self.document.docid)


@dataclass(frozen=True)
class TextJoinQuery:
    """A conjunctive query joining one relation with the text source."""

    relation: str
    join_predicates: Tuple[TextJoinPredicate, ...]
    text_selections: Tuple[TextSelection, ...] = ()
    relation_predicate: Optional[Expression] = None
    shape: ResultShape = ResultShape.PAIRS
    long_form: bool = False  # retrieve full documents for PAIRS results?

    #: The method space (and backend kind) that can answer this query:
    #: ``<column> in <field>`` predicates are Boolean containment.
    source_kind = "boolean"

    def __post_init__(self) -> None:
        if not self.relation:
            raise PlanError("query must name a relation")
        if not self.join_predicates:
            raise PlanError("a text-join query needs at least one join predicate")
        columns = [predicate.column for predicate in self.join_predicates]
        if len(set(columns)) != len(columns):
            raise PlanError("join predicates must be on distinct columns")
        if self.long_form and self.shape is not ResultShape.PAIRS:
            raise PlanError("long_form only applies to PAIRS-shaped queries")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def join_columns(self) -> Tuple[str, ...]:
        """``K``: the relation columns appearing in join predicates."""
        return tuple(predicate.column for predicate in self.join_predicates)

    def predicate_on(self, column: str) -> TextJoinPredicate:
        """The join predicate over a given relation column."""
        for predicate in self.join_predicates:
            if predicate.column == column:
                return predicate
        raise PlanError(f"no join predicate on column {column!r}")

    def predicates_on(self, columns: Sequence[str]) -> Tuple[TextJoinPredicate, ...]:
        """The join predicates over a set of columns, in query order."""
        wanted = set(columns)
        missing = wanted - set(self.join_columns)
        if missing:
            raise PlanError(f"no join predicates on columns {sorted(missing)}")
        return tuple(
            predicate
            for predicate in self.join_predicates
            if predicate.column in wanted
        )

    def __repr__(self) -> str:
        parts = [f"from {self.relation}"]
        if self.relation_predicate is not None:
            parts.append(f"where {self.relation_predicate!r}")
        for selection in self.text_selections:
            parts.append(repr(selection))
        for predicate in self.join_predicates:
            parts.append(repr(predicate))
        return f"TextJoinQuery({'; '.join(parts)}; shape={self.shape.value})"
