"""The ``TextMatch`` relational expression.

Once documents have been fetched from the text system and materialized
as relational rows, remaining ``<column> in <field>`` predicates can be
evaluated locally (this is what makes RTP and post-text-join filtering
possible).  ``TextMatch`` implements exactly the text system's semantics
— the join value's word sequence must appear in the field — so that
locally-evaluated predicates agree with server-evaluated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.errors import TypeMismatchError
from repro.relational.expressions import Expression
from repro.relational.row import Row
from repro.textsys.analysis import tokenize

__all__ = ["TextMatch", "tokens_match", "value_matches_field"]


def tokens_match(needle: List[str], haystack: List[str]) -> bool:
    """True when the word sequence ``needle`` occurs in ``haystack``.

    The one implementation of the local match, on :func:`tokenize`
    output, so a caller matching many pairs tokenizes each side once.
    An empty ``needle`` (a value with no indexable word) never matches.
    """
    if not needle:
        return False
    width = len(needle)
    if width == 1:
        return needle[0] in haystack
    return any(
        haystack[start : start + width] == needle
        for start in range(len(haystack) - width + 1)
    )


def value_matches_field(value: str, field_text: str) -> bool:
    """True when ``value``'s word sequence occurs in ``field_text``.

    Single-word values match any occurrence of the word; multi-word
    values match as a consecutive word sequence (the text system's
    phrase semantics).  Values with no indexable words never match.
    """
    return tokens_match(tokenize(value), tokenize(field_text))


@dataclass(frozen=True)
class TextMatch(Expression):
    """``value_column in field_column`` evaluated on relational rows.

    Typically the left operand is a relation column (the join value) and
    the right a document pseudo-column holding a text field, which must
    be a string.  The value is matched as ``str(value)``, as the join
    methods instantiate it, so an ``INTEGER`` join column answers the
    same inside a text join and deferred to a relational join.
    """

    value: Expression
    field_text: Expression

    def evaluate(self, row: Row) -> Optional[bool]:
        value = self.value.evaluate(row)
        field_text = self.field_text.evaluate(row)
        if value is None or field_text is None:
            return None
        if not isinstance(field_text, str):
            raise TypeMismatchError(
                f"TextMatch needs a text field, got {field_text!r}"
            )
        return value_matches_field(str(value), field_text)

    def referenced_columns(self) -> FrozenSet[str]:
        return self.value.referenced_columns() | self.field_text.referenced_columns()

    def __repr__(self) -> str:
        return f"textmatch({self.value!r} in {self.field_text!r})"
