"""Parser for the textual search-expression syntax.

Accepted syntax (Section 2.1 examples):

- field-scoped terms: ``TI='belief update'``, ``AU='smith'``
- truncation: ``TI='filter?'``
- proximity: ``AB='information near10 filtering'``
- Boolean connectives: ``and``, ``or``, ``not`` (case-insensitive) with
  parentheses.

Field codes are resolved through a caller-supplied mapping (e.g.
``{"TI": "title", "AU": "author"}``); full field names always work.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Union

from repro.errors import SearchSyntaxError
from repro.textsys.analysis import normalize_term
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    ProximityQuery,
    SearchNode,
    canonicalize_for_sharing,
    make_term,
)

__all__ = ["parse_search", "share_key", "term_node", "DEFAULT_FIELD_CODES"]

#: Conventional bibliographic field codes (LOCIS/Dialog style).
DEFAULT_FIELD_CODES: Dict[str, str] = {
    "TI": "title",
    "AU": "author",
    "AB": "abstract",
    "YR": "year",
    "IN": "institution",
}

_TOKEN_RE = re.compile(
    r"""
    \s*(
        \( | \) | =            # punctuation
        | '(?:[^'])*'          # single-quoted string
        | [A-Za-z_][A-Za-z0-9_.]*  # identifier / keyword
    )
    """,
    re.VERBOSE,
)

_NEAR_RE = re.compile(r"^(\S+)\s+near(\d+)\s+(\S+)$", re.IGNORECASE)


def _lex(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise SearchSyntaxError(f"cannot tokenize search text at {remainder[:20]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the lexed token stream."""

    def __init__(self, tokens: List[str], field_codes: Mapping[str, str]) -> None:
        self._tokens = tokens
        self._position = 0
        self._field_codes = dict(field_codes)

    def parse(self) -> SearchNode:
        node = self._or_expression()
        if self._position != len(self._tokens):
            raise SearchSyntaxError(
                f"unexpected trailing token {self._peek()!r} in search expression"
            )
        return node

    # ------------------------------------------------------------------
    def _peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> str:
        token = self._peek()
        if token is None:
            raise SearchSyntaxError("unexpected end of search expression")
        self._position += 1
        return token

    def _expect(self, token: str) -> None:
        actual = self._advance()
        if actual != token:
            raise SearchSyntaxError(f"expected {token!r}, found {actual!r}")

    # ------------------------------------------------------------------
    def _or_expression(self) -> SearchNode:
        operands = [self._and_expression()]
        while self._peek() is not None and self._peek().lower() == "or":
            self._advance()
            operands.append(self._and_expression())
        if len(operands) == 1:
            return operands[0]
        return OrQuery(tuple(operands))

    def _and_expression(self) -> SearchNode:
        operands = [self._unary()]
        while self._peek() is not None and self._peek().lower() == "and":
            self._advance()
            operands.append(self._unary())
        if len(operands) == 1:
            return operands[0]
        return AndQuery(tuple(operands))

    def _unary(self) -> SearchNode:
        token = self._peek()
        if token is not None and token.lower() == "not":
            self._advance()
            return NotQuery(self._unary())
        return self._primary()

    def _primary(self) -> SearchNode:
        token = self._peek()
        if token == "(":
            self._advance()
            node = self._or_expression()
            self._expect(")")
            return node
        return self._term()

    def _term(self) -> SearchNode:
        field_token = self._advance()
        if not re.match(r"^[A-Za-z_]", field_token):
            raise SearchSyntaxError(f"expected a field name, found {field_token!r}")
        field = self._field_codes.get(field_token.upper(), field_token)
        self._expect("=")
        quoted = self._advance()
        if not (quoted.startswith("'") and quoted.endswith("'")):
            raise SearchSyntaxError(f"expected a quoted term, found {quoted!r}")
        body = quoted[1:-1]
        return term_node(field, body)


def term_node(field: str, body: str) -> SearchNode:
    """Build the search node for one quoted term body.

    Handles every basic-term form: single word, phrase, truncation
    (trailing ``?``), and proximity (``w1 nearN w2``).
    """
    near = _NEAR_RE.match(body.strip())
    if near is not None:
        left = normalize_term(near.group(1))
        right = normalize_term(near.group(3))
        distance = int(near.group(2))
        return ProximityQuery(field, left, right, distance)
    return make_term(field, body)


def parse_search(
    text: str, field_codes: Optional[Mapping[str, str]] = None
) -> SearchNode:
    """Parse a textual search expression into a :class:`SearchNode` tree.

    >>> node = parse_search("TI='belief update' and AU='radhika'")
    >>> node.term_count()
    2
    """
    if field_codes is None:
        field_codes = DEFAULT_FIELD_CODES
    tokens = _lex(text)
    if not tokens:
        raise SearchSyntaxError("empty search expression")
    return _Parser(tokens, field_codes).parse()


def share_key(query: Union[SearchNode, str]) -> str:
    """The key under which two searches may share one execution.

    Equal keys guarantee identical result sets *and* identical charges
    (:func:`~repro.textsys.query.canonicalize_for_sharing` preserves the
    leaf multiset, and with it ``postings_processed`` — DESIGN invariant
    11); unequal keys are never merged by the gateway's in-flight search
    table, however similar the answers might happen to be.
    """
    if isinstance(query, str):
        query = parse_search(query)
    return canonicalize_for_sharing(query).to_expression()
