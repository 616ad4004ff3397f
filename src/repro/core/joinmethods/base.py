"""Shared machinery for the foreign-join methods of Section 3.

Every join method consumes a :class:`JoinContext` (the catalog plus the
metered text client) and a :class:`~repro.core.query.TextJoinQuery`, and
produces a :class:`MethodExecution` carrying the results in the query's
requested shape together with the cost-ledger delta attributable to the
method.

The helpers here encode the semantics all methods must share so that
they return identical results:

- tuples whose join columns contain NULL never join (SQL semantics);
- an instantiated join predicate turns the column value into the text
  system's basic term for that value (word or phrase, via ``make_term``);
- relational text processing (:func:`rtp_match_pairs`) checks join
  values against fetched documents using the *same* word-level semantics
  as the text system, implemented with SQL-style string matching on the
  relational side (:func:`~repro.core.textmatch.tokens_match`) — the
  text system's own evaluators are never called from here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.query import (
    JoinedPair,
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.core.textmatch import tokens_match
from repro.errors import JoinMethodError, OptimizationError, ReproError
from repro.gateway.client import TextClient
from repro.gateway.costs import CostLedger
from repro.relational.catalog import Catalog
from repro.relational.expressions import satisfying
from repro.relational.row import Row
from repro.textsys.analysis import tokenize
from repro.textsys.documents import Document
from repro.textsys.parser import term_node
from repro.textsys.query import SearchNode, data_term

__all__ = [
    "JoinContext",
    "MethodExecution",
    "JoinMethod",
    "ensure_method_legal",
    "ensure_plannable",
    "joining_rows",
    "selection_node",
    "selection_nodes",
    "instantiate_predicates",
    "group_by_columns",
    "rtp_fields_available",
    "rtp_match_pairs",
    "finalize_execution",
]


@dataclass
class JoinContext:
    """Everything a join method needs to run: data plus the text gateway.

    ``materialized`` registers intermediate results under pseudo-relation
    names so that multi-join plans can run a foreign-join method over the
    output of earlier joins (the relation named by a
    :class:`~repro.core.query.TextJoinQuery` is looked up here first,
    then in the catalog).
    """

    catalog: Catalog
    client: TextClient
    materialized: Dict[str, List[Row]] = field(default_factory=dict)


@dataclass
class MethodExecution:
    """The outcome of running one join method on one query."""

    method: str
    shape: ResultShape
    pairs: List[JoinedPair] = field(default_factory=list)
    docids: List[str] = field(default_factory=list)
    tuples: List[Row] = field(default_factory=list)
    cost: CostLedger = field(default_factory=CostLedger)
    wall_seconds: float = 0.0

    def result_keys(self) -> frozenset:
        """A canonical, shape-appropriate identity set for the results."""
        if self.shape is ResultShape.PAIRS:
            return frozenset(pair.key() for pair in self.pairs)
        if self.shape is ResultShape.DOCIDS:
            return frozenset(self.docids)
        return frozenset(row.values for row in self.tuples)

    def __repr__(self) -> str:
        sizes = {
            ResultShape.PAIRS: len(self.pairs),
            ResultShape.DOCIDS: len(self.docids),
            ResultShape.TUPLES: len(self.tuples),
        }
        return (
            f"MethodExecution({self.method}, {sizes[self.shape]} "
            f"{self.shape.value}, cost={self.cost.total:.3f}s)"
        )


class JoinMethod:
    """Base class for the foreign-join methods (TS, RTP, SJ, P+TS, ...)."""

    #: Short name used in tables and plan annotations ("TS", "P+TS", ...).
    name: str = "?"

    #: The predicate semantics this method is sound under.  Every method
    #: of Section 3 assumes the Boolean model: probe-based pruning and
    #: semijoin term-subset batching rely on query *monotonicity* (more
    #: terms can only shrink the answer), which ranking backends violate
    #: (Section 8) — adding a term can ADD answers under cosine top-k.
    source_kind: str = "boolean"

    def applies(self, query: TextJoinQuery, source: Any) -> bool:
        """Can this method evaluate this query against this source?

        The method's one applicability rule.  ``source`` carries the
        capability members ``short_fields`` (``None`` = all visible),
        ``batch_limit`` and ``source_kind``: the cost inputs at plan
        time, the metered client at run time — so what is enumerated
        and what :meth:`check_applicable` admits cannot disagree.
        """
        raise NotImplementedError

    def applicable(self, query: TextJoinQuery, context: JoinContext) -> bool:
        """:meth:`applies` against the context's client."""
        return self.applies(query, context.client)

    def illegal_on(self, source_kind: str) -> ReproError:
        """The typed error for running this method on another kind of source."""
        return OptimizationError(
            f"{self.name} assumes a {self.source_kind!r} source (its pruning "
            f"relies on Boolean monotonicity, Section 8); this backend is "
            f"{source_kind!r}"
        )

    def check_applicable(self, query: TextJoinQuery, context: JoinContext) -> None:
        ensure_method_legal(self, context.client.source_kind)
        if not self.applicable(query, context):
            raise JoinMethodError(f"{self.name} is not applicable to {query!r}")

    def execute(self, query: TextJoinQuery, context: JoinContext) -> MethodExecution:
        """Run the method; must call :meth:`check_applicable` first."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# shared building blocks
# ----------------------------------------------------------------------
def ensure_method_legal(method: "JoinMethod", source_kind: str) -> None:
    """Refuse to run a method against a backend it is unsound for.

    The one run-time legality check (DESIGN invariant 15's soundness
    side): a probe-based or semijoin method forced — via an explicit
    method override — against a non-Boolean source would silently drop
    answers that ranking semantics can add, so the mismatch is the
    method's typed :meth:`~JoinMethod.illegal_on` error, never a wrong
    answer.
    """
    if source_kind != method.source_kind:
        raise method.illegal_on(source_kind)


def ensure_plannable(required_kind: str, source: Any) -> None:
    """Refuse to plan a method space against another kind of backend.

    The one plan-time legality check: statistics gathering, vector cost
    inputs and method enumeration all pass through it, so a mismatch
    fails *before* any call is sent — the Section 4.2 statistics are
    gathered with Boolean probes a ranking backend rejects, and the
    Section 3 space they feed is unsound there anyway (Section 8).
    ``source`` is a client or cost inputs, as for :meth:`JoinMethod.applies`.
    """
    if source.source_kind != required_kind:
        raise OptimizationError(
            f"the {required_kind!r} method space (Boolean monotone "
            f"semantics for Section 3, a scoring source for ranked "
            f"strategies) cannot be planned against this "
            f"{source.source_kind!r} backend; see repro.core.heterogeneous"
        )


def joining_rows(context: JoinContext, query: TextJoinQuery) -> List[Row]:
    """The joining relation: base table or materialized intermediate,
    after the query's local selection."""
    predicate = query.relation_predicate
    if query.relation not in context.materialized:
        return list(context.catalog.table(query.relation).scan(predicate))
    rows = context.materialized[query.relation]
    return list(rows if predicate is None else satisfying(predicate, rows))


def selection_node(selection: TextSelection) -> SearchNode:
    """The search node for one text selection (word/phrase/truncation/near)."""
    return term_node(selection.field, selection.term)


def selection_nodes(query: TextJoinQuery) -> List[SearchNode]:
    """Search nodes for every text selection of the query."""
    return [selection_node(selection) for selection in query.text_selections]


def instantiate_predicates(
    predicates: Sequence[TextJoinPredicate], row: Row
) -> Optional[List[SearchNode]]:
    """Instantiate join predicates with one tuple's values.

    Returns ``None`` when any join value is NULL or contains no indexable
    word — such tuples can never join (and the text system could not even
    express the search).
    """
    nodes: List[SearchNode] = []
    for predicate in predicates:
        value = row[predicate.column]
        if value is None:
            return None
        text = str(value)
        if not tokenize(text):
            return None
        nodes.append(data_term(predicate.field, text))
    return nodes


def group_by_columns(
    rows: Sequence[Row], columns: Sequence[str]
) -> "Dict[Tuple[object, ...], List[Row]]":
    """Group tuples by their projection on ``columns`` (insertion order).

    Column positions are resolved once per run of rows sharing a schema
    object (once per call for one relation's rows) into one tuple picker.
    """
    groups: Dict[Tuple[object, ...], List[Row]] = {}
    schema = pick = None
    for row in rows:
        if row.schema is not schema:
            schema = row.schema
            at = [schema.index_of(column) for column in columns]
            one = slice(at[0], at[0] + 1) if at else slice(0)
            pick = itemgetter(*at) if len(at) > 1 else itemgetter(one)
        groups.setdefault(pick(row.values), []).append(row)
    return groups


def rtp_fields_available(source: Any, predicates: Sequence[Any]) -> bool:
    """Can relational text processing see these predicates' fields?

    RTP-family methods string-match join values against *short-form*
    documents; a predicate whose field the short form does not carry
    cannot be evaluated relationally (the paper's applicability
    condition: "when the text predicates … are on short structured
    fields").  This is why "only two methods are universally applicable:
    TS and P+TS" (Section 7.2).  ``source`` is a client or cost inputs;
    ``short_fields=None`` (synthetic inputs) means all visible.
    """
    short_fields = source.short_fields
    return short_fields is None or all(
        predicate.field in short_fields for predicate in predicates
    )


def _join_value_tokens(
    row: Row, column: str, tokens: Dict[str, List[str]]
) -> List[str]:
    """One join value as match tokens (``[]``, never matching, for NULL),
    memoized by ``str(value)``: ``1``, ``1.0`` and ``True`` differ."""
    value = row[column]
    if value is None:
        return []
    text = str(value)
    if text not in tokens:
        tokens[text] = tokenize(text)
    return tokens[text]


def rtp_match_pairs(
    context: JoinContext,
    documents: Sequence[Document],
    rows: Sequence[Row],
    predicates: Sequence[TextJoinPredicate],
    tokens: Optional[Dict[str, List[str]]] = None,
) -> List[JoinedPair]:
    """The RTP phase shared by every fetch-then-match method.

    Charges ``c_a`` for every document × row comparison, then string-
    matches each pair against ``predicates``, returning the joined pairs
    in document-major order (the order all RTP-family methods produce).

    A pair joins when, for every predicate, the join value's word
    sequence appears in the document field (NULL values and values with
    no indexable word never match).  Each join value and each document
    field is read and tokenized once per call, not once per pair: the
    first time a pair reaches its predicate, so a column is looked up
    exactly when a per-pair check would look it up.  A caller matching
    many groups passes one ``tokens`` memo to tokenize a value once.
    """
    context.client.charge_rtp(len(documents) * len(rows))
    tokens = {} if tokens is None else tokens
    # needles[k][r]: row r's tokens for predicate k; None = not read yet.
    needles: List[List[Optional[List[str]]]] = [[None] * len(rows) for _ in predicates]
    numbered = list(enumerate(predicates))
    pairs: List[JoinedPair] = []
    for document in documents:
        haystacks: List[Optional[List[str]]] = [None] * len(predicates)
        for r, row in enumerate(rows):
            for k, predicate in numbered:
                needle = needles[k][r]
                if needle is None:
                    needle = needles[k][r] = _join_value_tokens(
                        row, predicate.column, tokens
                    )
                if not needle:
                    break
                haystack = haystacks[k]
                if haystack is None:
                    haystack = haystacks[k] = tokenize(document.field(predicate.field))
                if not tokens_match(needle, haystack):
                    break
            else:
                pairs.append(JoinedPair(row, document))
    return pairs


def finalize_execution(
    method: str,
    query: TextJoinQuery,
    context: JoinContext,
    pairs: List[JoinedPair],
    ledger_before: CostLedger,
    started_at: float,
) -> MethodExecution:
    """Shape the raw join pairs into the query's requested result form.

    For long-form PAIRS queries the distinct matching documents are
    retrieved in one ``retrieve_many`` (each charged ``c_l``, nothing if
    the call fails) and substituted into the pairs —
    mirroring the real system where searches return short forms and full
    documents are fetched by docid.
    """
    # Deduplicate pairs while preserving order.
    seen = set()
    unique_pairs: List[JoinedPair] = []
    for pair in pairs:
        key = pair.key()
        if key in seen:
            continue
        seen.add(key)
        unique_pairs.append(pair)

    execution = MethodExecution(method=method, shape=query.shape)
    if query.shape is ResultShape.PAIRS:
        if query.long_form and unique_pairs:
            long_forms: Dict[str, Document] = {
                document.docid: document
                for document in context.client.retrieve_many(
                    pair.document.docid for pair in unique_pairs
                )
            }
            unique_pairs = [
                JoinedPair(pair.row, long_forms[pair.document.docid])
                for pair in unique_pairs
            ]
        execution.pairs = unique_pairs
    elif query.shape is ResultShape.DOCIDS:
        docids: List[str] = []
        seen_docids = set()
        for pair in unique_pairs:
            if pair.document.docid in seen_docids:
                continue
            seen_docids.add(pair.document.docid)
            docids.append(pair.document.docid)
        execution.docids = docids
    else:  # TUPLES
        tuples: List[Row] = []
        seen_rows = set()
        for pair in unique_pairs:
            if pair.row.values in seen_rows:
                continue
            seen_rows.add(pair.row.values)
            tuples.append(pair.row)
        execution.tuples = tuples

    execution.cost = context.client.ledger.diff(ledger_before)
    execution.wall_seconds = time.perf_counter() - started_at
    return execution
