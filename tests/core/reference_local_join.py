"""The per-pair local-join loops, kept as the test oracle.

These are the bodies of ``repro.core.joinmethods.base.rtp_match_pairs``
(with the ``rtp_match`` and ``value_matches_field`` it called),
``group_by_columns``, a filter and the nested-loop join's ``__iter__``
as they stood before the per-pair invariants were hoisted, moved here
verbatim: every candidate pair re-reads the row by column name,
re-tokenizes the join value and the document field, and builds its
joined row against a fresh ``Schema`` (``left.schema.concat(right.schema)``)
per pair.  The one edit: predicates are evaluated by the by-name oracle,
``reference_evaluate(predicate, row)``, not ``predicate.evaluate(row)``
(which now binds).  The differential tests in
``test_local_join_equivalence.py`` and ``test_expressions.py`` require
the production loops to agree with them on every input: same pairs or
rows in the same order, same charge, same ``comparisons``, same errors.
"""

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.query import JoinedPair
from repro.relational.operators import NestedLoopJoin
from repro.relational.row import Row
from repro.textsys.analysis import tokenize
from tests.relational.reference_expressions import reference_evaluate


def reference_value_matches_field(value: str, field_text: str) -> bool:
    needle = tokenize(value)
    if not needle:
        return False
    haystack = tokenize(field_text)
    width = len(needle)
    if width == 1:
        return needle[0] in haystack
    return any(
        haystack[start : start + width] == needle
        for start in range(len(haystack) - width + 1)
    )


def reference_rtp_match(row, document, predicates) -> bool:
    for predicate in predicates:
        value = row[predicate.column]
        if value is None:
            return False
        if not reference_value_matches_field(
            str(value), document.field(predicate.field)
        ):
            return False
    return True


def reference_rtp_match_pairs(context, documents, rows, predicates) -> List[JoinedPair]:
    context.client.charge_rtp(len(documents) * len(rows))
    pairs: List[JoinedPair] = []
    for document in documents:
        for row in rows:
            if reference_rtp_match(row, document, predicates):
                pairs.append(JoinedPair(row, document))
    return pairs


def reference_group_by_columns(
    rows: Sequence[Row], columns: Sequence[str]
) -> "Dict[Tuple[object, ...], List[Row]]":
    groups: Dict[Tuple[object, ...], List[Row]] = {}
    for row in rows:
        key = tuple(row[column] for column in columns)
        groups.setdefault(key, []).append(row)
    return groups


class ReferenceNestedLoopJoin(NestedLoopJoin):
    def __iter__(self) -> Iterator[Row]:
        right_rows = list(self.right)
        for left_row in self.left:
            for right_row in right_rows:
                joined = Row(
                    left_row.schema.concat(right_row.schema),
                    left_row.values + right_row.values,
                )
                if self.predicate is None:
                    yield joined
                    continue
                self.comparisons += 1
                if reference_evaluate(self.predicate, joined) is True:
                    yield joined


def reference_filter(predicate, rows: Iterable[Row]) -> Iterator[Row]:
    for row in rows:
        if reference_evaluate(predicate, row) is True:
            yield row
