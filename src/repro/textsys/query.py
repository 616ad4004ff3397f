"""Boolean search expressions (the text system's query language).

Section 2.1: "A basic search term can be a word ('filtering'), a
truncated word ('filter?'), or a phrase ('information filtering') ...
the search may be limited to a certain text field ... Some systems
support proximity searches ('information near10 filtering').  These basic
search terms can be combined to form complex search expressions using
Boolean connectors and, or, and not."

Every node reports ``term_count`` — the number of *basic search terms* it
contains — because the server enforces a per-search limit ``M`` on that
count (Mercury allowed 70), which is what bounds the semi-join batching
of Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import SearchSyntaxError
from repro.textsys.analysis import normalize_term, tokenize

__all__ = [
    "SearchNode",
    "TermQuery",
    "PhraseQuery",
    "TruncatedQuery",
    "ProximityQuery",
    "AndQuery",
    "OrQuery",
    "NotQuery",
    "positional_words",
    "make_term",
    "data_term",
    "and_all",
    "or_all",
    "canonicalize_for_sharing",
]


class SearchNode:
    """Base class for Boolean search expression nodes."""

    def term_count(self) -> int:
        """Number of basic search terms in this expression."""
        raise NotImplementedError

    def to_expression(self) -> str:
        """Render back to the textual search syntax."""
        raise NotImplementedError

    def __and__(self, other: "SearchNode") -> "AndQuery":
        return AndQuery((self, other))

    def __or__(self, other: "SearchNode") -> "OrQuery":
        return OrQuery((self, other))

    def __invert__(self) -> "NotQuery":
        return NotQuery(self)


@dataclass(frozen=True)
class TermQuery(SearchNode):
    """A single word limited to one field: ``FIELD='word'``."""

    field: str
    term: str

    def __post_init__(self) -> None:
        if not self.term:
            raise SearchSyntaxError("empty search term")
        if tokenize(self.term) != [self.term]:
            raise SearchSyntaxError(
                f"term {self.term!r} is not a single normalized word; "
                "use make_term() to build terms from raw text"
            )

    def term_count(self) -> int:
        return 1

    def to_expression(self) -> str:
        return f"{self.field}='{self.term}'"


@dataclass(frozen=True)
class PhraseQuery(SearchNode):
    """An exact word sequence in one field: ``FIELD='belief update'``."""

    field: str
    words: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.words) < 2:
            raise SearchSyntaxError("a phrase needs at least two words")
        for word in self.words:
            if tokenize(word) != [word]:
                raise SearchSyntaxError(f"phrase word {word!r} is not normalized")

    def term_count(self) -> int:
        return 1

    def to_expression(self) -> str:
        return f"{self.field}='{' '.join(self.words)}'"


@dataclass(frozen=True)
class TruncatedQuery(SearchNode):
    """A truncated word: ``FIELD='filter?'`` matches every word with the prefix."""

    field: str
    prefix: str

    def __post_init__(self) -> None:
        if not self.prefix:
            raise SearchSyntaxError("truncated term needs a non-empty prefix")
        if self.prefix != normalize_term(self.prefix):
            raise SearchSyntaxError(f"prefix {self.prefix!r} is not normalized")

    def term_count(self) -> int:
        return 1

    def to_expression(self) -> str:
        return f"{self.field}='{self.prefix}?'"


@dataclass(frozen=True)
class ProximityQuery(SearchNode):
    """Two words within ``distance`` word positions, either order.

    ``FIELD='information' near10 FIELD='filtering'``.
    """

    field: str
    left: str
    right: str
    distance: int

    def __post_init__(self) -> None:
        if self.distance < 1:
            raise SearchSyntaxError("proximity distance must be >= 1")
        for word in (self.left, self.right):
            if tokenize(word) != [word]:
                raise SearchSyntaxError(f"proximity word {word!r} is not normalized")

    def term_count(self) -> int:
        return 2

    def to_expression(self) -> str:
        # The quoted-term proximity syntax the parser accepts.
        return f"{self.field}='{self.left} near{self.distance} {self.right}'"


@dataclass(frozen=True)
class AndQuery(SearchNode):
    """Conjunction of subexpressions."""

    operands: Tuple[SearchNode, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 1:
            raise SearchSyntaxError("and needs at least one operand")

    def term_count(self) -> int:
        return sum(operand.term_count() for operand in self.operands)

    def to_expression(self) -> str:
        return "(" + " and ".join(op.to_expression() for op in self.operands) + ")"


@dataclass(frozen=True)
class OrQuery(SearchNode):
    """Disjunction of subexpressions."""

    operands: Tuple[SearchNode, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 1:
            raise SearchSyntaxError("or needs at least one operand")

    def term_count(self) -> int:
        return sum(operand.term_count() for operand in self.operands)

    def to_expression(self) -> str:
        return "(" + " or ".join(op.to_expression() for op in self.operands) + ")"


@dataclass(frozen=True)
class NotQuery(SearchNode):
    """Boolean complement of a subexpression."""

    operand: SearchNode

    def term_count(self) -> int:
        return self.operand.term_count()

    def to_expression(self) -> str:
        return f"(not {self.operand.to_expression()})"


def positional_words(node: SearchNode) -> Tuple[str, ...]:
    """The words a phrase or proximity node names, in order."""
    return node.words if isinstance(node, PhraseQuery) else (node.left, node.right)


def make_term(field: str, text: str) -> SearchNode:
    """Build the right basic search term for raw text.

    Raw text tokenizing to one word becomes a :class:`TermQuery`; to
    several words, a :class:`PhraseQuery`.  A trailing ``?`` on a single
    word produces a :class:`TruncatedQuery`.  This is the entry point the
    join methods use when instantiating join values into searches.
    """
    stripped = text.strip()
    if stripped.endswith("?"):
        prefix = normalize_term(stripped[:-1])
        if prefix:
            return TruncatedQuery(field, prefix)
    words = tuple(tokenize(text))
    if not words:
        raise SearchSyntaxError(f"text {text!r} contains no indexable words")
    if len(words) == 1:
        return TermQuery(field, words[0])
    return PhraseQuery(field, words)


def data_term(field: str, text: str) -> SearchNode:
    """Build a search term from a *data value* (a relational join value).

    Unlike :func:`make_term`, no query syntax is interpreted: a trailing
    ``?`` is ordinary punctuation (dropped by tokenization), never a
    truncation operator.  Join methods must use this for instantiated
    values so that server-side and relational-side matching agree.
    """
    words = tuple(tokenize(text))
    if not words:
        raise SearchSyntaxError(f"value {text!r} contains no indexable words")
    if len(words) == 1:
        return TermQuery(field, words[0])
    return PhraseQuery(field, words)


def and_all(operands: Iterable[SearchNode]) -> SearchNode:
    """AND together a non-empty list, flattening nested ANDs."""
    flat: List[SearchNode] = []
    for operand in operands:
        if isinstance(operand, AndQuery):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        raise SearchSyntaxError("and_all of no operands")
    if len(flat) == 1:
        return flat[0]
    return AndQuery(tuple(flat))


def or_all(operands: Iterable[SearchNode]) -> SearchNode:
    """OR together a non-empty list, flattening nested ORs."""
    flat: List[SearchNode] = []
    for operand in operands:
        if isinstance(operand, OrQuery):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        raise SearchSyntaxError("or_all of no operands")
    if len(flat) == 1:
        return flat[0]
    return OrQuery(tuple(flat))


def canonicalize_for_sharing(node: SearchNode) -> SearchNode:
    """The sharing-safe canonical form of a search expression.

    Same-connective nesting is flattened and commutative operands are
    sorted by their rendering, so ``(a and b) and c`` and ``c and (b and
    a)`` share one form.  Unlike the cost rewriter
    (:mod:`repro.textsys.rewriter`), duplicate operands are **kept**:
    ``a and a and b`` answers like ``a and b`` but reads ``a``'s
    inverted list twice, so its charge differs — merging the two would
    break the as-if-alone accounting (DESIGN invariant 16).
    """
    if isinstance(node, (AndQuery, OrQuery)):
        connective = type(node)
        flat: List[SearchNode] = []
        for operand in node.operands:
            canonical = canonicalize_for_sharing(operand)
            if isinstance(canonical, connective):
                flat.extend(canonical.operands)
            else:
                flat.append(canonical)
        flat.sort(key=lambda child: child.to_expression())
        if len(flat) == 1:
            return flat[0]
        return connective(tuple(flat))
    if isinstance(node, NotQuery):
        return NotQuery(canonicalize_for_sharing(node.operand))
    return node
