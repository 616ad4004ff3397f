"""Multi-join queries: several stored relations plus the text source.

:class:`MultiJoinQuery` (Section 6) is ONE query over ``n`` relations and
the text source — the shape of Q5:

    select student.name, mercury.docid
    from student, faculty, mercury
    where student.name in mercury.author
      and faculty.name in mercury.author
      and faculty.dept != student.dept
      and 'may 1993' in mercury.year

Text join predicate columns are qualified with their relation
(``student.name``); relational join predicates are arbitrary
expressions whose referenced columns span exactly two relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.query import TextJoinPredicate, TextSelection
from repro.errors import PlanError
from repro.relational.expressions import Expression

__all__ = [
    "RelationalJoinPredicate",
    "MultiJoinQuery",
    "TEXT_SOURCE",
]

#: The pseudo-relation name standing for the external text system in join
#: orders and plan descriptions.
TEXT_SOURCE = "~text~"


def _relation_of_column(column: str) -> str:
    if "." not in column:
        raise PlanError(
            f"multi-join text predicate column {column!r} must be qualified "
            "with its relation (e.g. 'student.name')"
        )
    return column.split(".", 1)[0]


@dataclass(frozen=True)
class RelationalJoinPredicate:
    """A join predicate between two stored relations."""

    expression: Expression
    relations: Tuple[str, str]

    def __post_init__(self) -> None:
        if len(set(self.relations)) != 2:
            raise PlanError("a relational join predicate spans two distinct relations")

    def __repr__(self) -> str:
        return f"JoinPred({self.relations[0]} ~ {self.relations[1]}: {self.expression!r})"


@dataclass(frozen=True)
class MultiJoinQuery:
    """A conjunctive query over ``n`` relations and one text source."""

    relations: Tuple[str, ...]
    text_predicates: Tuple[TextJoinPredicate, ...]
    text_selections: Tuple[TextSelection, ...] = ()
    join_predicates: Tuple[RelationalJoinPredicate, ...] = ()
    local_predicates: Tuple[Tuple[str, Expression], ...] = ()
    long_form: bool = False
    #: Qualifier for document pseudo-columns in results ("mercury.docid").
    text_source: str = "text"

    def __post_init__(self) -> None:
        if not self.relations:
            raise PlanError("a multi-join query needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise PlanError("duplicate relations in query")
        if self.text_source in self.relations:
            raise PlanError(
                f"text source name {self.text_source!r} collides with a relation"
            )
        if not self.text_predicates and not self.text_selections:
            raise PlanError(
                "a multi-join query must reference the text source through "
                "at least one text predicate or selection"
            )
        known = set(self.relations)
        for predicate in self.text_predicates:
            relation = _relation_of_column(predicate.column)
            if relation not in known:
                raise PlanError(
                    f"text predicate column {predicate.column!r} references "
                    f"unknown relation {relation!r}"
                )
        for join_predicate in self.join_predicates:
            unknown = set(join_predicate.relations) - known
            if unknown:
                raise PlanError(f"join predicate over unknown relations {unknown}")
        for relation, _ in self.local_predicates:
            if relation not in known:
                raise PlanError(f"local predicate on unknown relation {relation!r}")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def local_predicate(self, relation: str) -> Optional[Expression]:
        """The (single) local selection on a relation, if any."""
        for name, expression in self.local_predicates:
            if name == relation:
                return expression
        return None

    def text_predicates_of(self, relation: str) -> Tuple[TextJoinPredicate, ...]:
        """The text join predicates whose column lives in ``relation``."""
        return tuple(
            predicate
            for predicate in self.text_predicates
            if _relation_of_column(predicate.column) == relation
        )

    def text_predicates_within(
        self, relations: Sequence[str]
    ) -> Tuple[TextJoinPredicate, ...]:
        """Text predicates whose columns are available given ``relations``."""
        available = set(relations)
        return tuple(
            predicate
            for predicate in self.text_predicates
            if _relation_of_column(predicate.column) in available
        )

    def join_predicates_between(
        self, done: Sequence[str], incoming: str
    ) -> Tuple[RelationalJoinPredicate, ...]:
        """Relational join predicates connecting ``incoming`` to ``done``."""
        done_set = set(done)
        out = []
        for predicate in self.join_predicates:
            a, b = predicate.relations
            if (a == incoming and b in done_set) or (b == incoming and a in done_set):
                out.append(predicate)
        return tuple(out)

    def join_predicates_across(
        self, left: Sequence[str], right: Sequence[str]
    ) -> Tuple[RelationalJoinPredicate, ...]:
        """Relational join predicates with one side in each relation set."""
        left_set, right_set = set(left), set(right)
        out = []
        for predicate in self.join_predicates:
            a, b = predicate.relations
            if (a in left_set and b in right_set) or (
                b in left_set and a in right_set
            ):
                out.append(predicate)
        return tuple(out)

    def relations_with_text_predicates(self) -> Tuple[str, ...]:
        """Relations that carry at least one text join predicate."""
        seen = []
        for predicate in self.text_predicates:
            relation = _relation_of_column(predicate.column)
            if relation not in seen:
                seen.append(relation)
        return tuple(seen)
