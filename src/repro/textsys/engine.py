"""Search evaluation over the inverted index.

Evaluation follows the paper's processing model (Section 2.1): inverted
lists are retrieved for each basic term and combined with sorted set
operations.  :class:`EvaluationResult` carries both the matching
documents and ``postings_processed`` — the sum of the lengths of every
inverted list the query names — which is exactly the quantity the cost
model multiplies by ``c_p``.

Two engine modes produce that result:

- ``reference`` — the original linear pairwise merges, kept verbatim as
  the test oracle: every operand is evaluated in query order, OR chains
  fold pairwise, nothing is reordered or skipped.
- ``optimized`` — the fast kernels: the expression is first normalized
  by :mod:`repro.textsys.rewriter` (flattened, duplicate-free,
  conjuncts ordered by document frequency), a conjunction folds into
  one running result that *restricts* every later conjunct (an OR is
  probed disjunct by disjunct, and a ``k``-word phrase merged only
  within it, when ``len(current) * k`` is at most its charge-free
  directory estimate), intersections gallop on skewed lists
  and stop once empty, OR/truncation fan-ins use one k-way set union,
  and repeated subexpressions are evaluated once (only full results are
  memoized, never restricted ones).  Every leaf still reaches a
  retrieval — evaluated, or charge-only via ``index.lookup`` when
  skipped or deduplicated — so ``postings_processed``, page reads,
  result docids, and every downstream counter are bit-identical to
  ``reference``.

The process-wide default mode is ``optimized``; set the
``REPRO_ENGINE_MODE`` environment variable (or pass ``mode=``) to pin
either engine.

:func:`matches_document` is a brute-force reference evaluator used by the
test suite to validate both index-based paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

from repro.errors import SearchSyntaxError, TextSystemError
from repro.textsys.analysis import tokenize
from repro.textsys.documents import Document
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.postings import (
    PostingList,
    difference,
    intersect,
    intersect_linear,
    positional_intersect,
    select_docs,
    union,
    union_many,
)
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    SearchNode,
    TermQuery,
    TruncatedQuery,
    positional_words,
)
from repro.textsys.rewriter import estimated_result_size, rewrite

__all__ = [
    "ENGINE_MODES",
    "ENGINE_MODE_ENV",
    "EvaluationResult",
    "resolve_engine_mode",
    "evaluate",
    "matches_document",
]

#: The two evaluation engines: the linear-merge oracle and the fast kernels.
ENGINE_MODES = ("reference", "optimized")

#: Environment variable overriding the process-wide default engine mode.
ENGINE_MODE_ENV = "REPRO_ENGINE_MODE"


def resolve_engine_mode(mode: Optional[str] = None) -> str:
    """The engine mode to use: explicit > ``REPRO_ENGINE_MODE`` > optimized."""
    if mode is None:
        mode = os.environ.get(ENGINE_MODE_ENV) or "optimized"
    if mode not in ENGINE_MODES:
        raise TextSystemError(
            f"unknown engine mode {mode!r}; known: {list(ENGINE_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one search expression against the index."""

    postings: PostingList
    postings_processed: int

    def doc_count(self) -> int:
        return len(self.postings)


def evaluate(
    index: InvertedIndex, query: SearchNode, mode: Optional[str] = None
) -> EvaluationResult:
    """Evaluate a Boolean search expression using inverted lists.

    ``index`` is any object implementing the
    :class:`~repro.textsys.inverted_index.InvertedIndex` interface —
    in particular the disk-backed
    :class:`~repro.textsys.diskindex.DiskInvertedIndex`, whose lazy
    posting lists both engines consume unchanged (lookups charge pages
    from the dictionary, merges materialize blocks on demand, and the
    optimized engine's skewed intersections gallop through skip tables
    without decoding whole lists — see DESIGN invariant 13).
    """
    if resolve_engine_mode(mode) == "reference":
        postings, processed = _evaluate(index, query)
    else:
        postings, processed = _OptimizedEvaluator(index).run(query)
    return EvaluationResult(postings=postings, postings_processed=processed)


def _check_operands(query: SearchNode) -> None:
    """Reject zero-operand connectives that bypassed the constructors.

    :class:`AndQuery`/:class:`OrQuery` raise at construction time, but
    deserialization paths that restore ``__dict__`` directly (pickle,
    hand-built frames) can smuggle an empty operand tuple through; the
    engine must fail loudly rather than silently return nothing.
    """
    if isinstance(query, (AndQuery, OrQuery)) and not query.operands:
        raise SearchSyntaxError(
            f"{type(query).__name__} with no operands cannot be evaluated"
        )


# ----------------------------------------------------------------------
# reference engine (the oracle): linear pairwise merges, query order
# ----------------------------------------------------------------------
def _evaluate(index: InvertedIndex, query: SearchNode) -> Tuple[PostingList, int]:
    if isinstance(query, TermQuery):
        postings = index.lookup(query.field, query.term)
        return postings, len(postings)

    if isinstance(query, TruncatedQuery):
        expansions = index.lookup_prefix(query.field, query.prefix)
        processed = sum(len(postings) for _, postings in expansions)
        if not expansions:
            return PostingList(), 0
        result = reduce(union, (postings for _, postings in expansions))
        return result, processed

    if isinstance(query, PhraseQuery):
        lists = [index.lookup(query.field, word) for word in query.words]
        processed = sum(len(postings) for postings in lists)
        current = lists[0]
        for following in lists[1:]:
            current = positional_intersect(current, following, min_gap=1, max_gap=1)
            if not len(current):
                break
        return PostingList.from_docs(current.docs()), processed

    if isinstance(query, ProximityQuery):
        left = index.lookup(query.field, query.left)
        right = index.lookup(query.field, query.right)
        processed = len(left) + len(right)
        near = positional_intersect(
            left, right, min_gap=-query.distance, max_gap=query.distance
        )
        return PostingList.from_docs(near.docs()), processed

    if isinstance(query, AndQuery):
        _check_operands(query)
        total = 0
        current: PostingList = None  # type: ignore[assignment]
        for operand in query.operands:
            postings, processed = _evaluate(index, operand)
            total += processed
            current = (
                postings
                if current is None
                else intersect_linear(current, postings)
            )
        return current, total

    if isinstance(query, OrQuery):
        _check_operands(query)
        total = 0
        current = PostingList()
        for operand in query.operands:
            postings, processed = _evaluate(index, operand)
            total += processed
            current = union(current, postings)
        return current, total

    if isinstance(query, NotQuery):
        postings, processed = _evaluate(index, query.operand)
        return difference(index.all_docs(), postings), processed

    raise TextSystemError(f"unknown search node {type(query).__name__}")


# ----------------------------------------------------------------------
# optimized engine: rewritten shape, fast kernels, charge-only skips
# ----------------------------------------------------------------------
class _OptimizedEvaluator:
    """One optimized evaluation; memoizes repeated subexpressions.

    The accounting contract: for every subtree, the pair of side effects
    (``postings_processed`` contribution, ``index.pages_read`` growth)
    is exactly what the reference engine would produce.  Wherever merge
    work is skipped — a conjunction already empty, a memoized repeat, a
    rewriter-deduplicated operand — :meth:`_charge` still performs the
    subtree's list retrievals so the charges land.
    """

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index
        self._memo: Dict[SearchNode, PostingList] = {}
        self._words: Dict[Tuple[str, str], PostingList] = {}

    def run(self, query: SearchNode) -> Tuple[PostingList, int]:
        plan = rewrite(self.index, query)
        processed = sum(self._charge(node) for node in plan.duplicates)
        postings, evaluated = self._eval(plan.node)
        return postings, processed + evaluated

    # ------------------------------------------------------------------
    def _eval(self, node: SearchNode) -> Tuple[PostingList, int]:
        cached = self._memo.get(node)
        if cached is not None:
            # Same subexpression again: reuse the merged result but
            # re-run its retrievals so the charges stay reference-equal.
            return cached, self._charge(node)
        postings, processed = self._compute(node)
        self._memo[node] = postings
        return postings, processed

    def _compute(self, node: SearchNode) -> Tuple[PostingList, int]:
        index = self.index
        if isinstance(node, TermQuery):
            postings = index.lookup(node.field, node.term)
            return postings, len(postings)

        if isinstance(node, TruncatedQuery):
            expansions = index.lookup_prefix(node.field, node.prefix)
            processed = sum(len(postings) for _, postings in expansions)
            if not expansions:
                return PostingList(), 0
            return (
                union_many([postings for _, postings in expansions]),
                processed,
            )

        if isinstance(node, (PhraseQuery, ProximityQuery)):
            return self._positional(node)

        if isinstance(node, AndQuery):
            return self._compute_and(node)

        if isinstance(node, OrQuery):
            _check_operands(node)
            results = []
            processed = 0
            for operand in node.operands:
                postings, evaluated = self._eval(operand)
                processed += evaluated
                results.append(postings)
            return union_many(results), processed

        if isinstance(node, NotQuery):
            postings, processed = self._eval(node.operand)
            return difference(index.all_docs(), postings), processed

        raise TextSystemError(f"unknown search node {type(node).__name__}")

    def _compute_and(self, node: AndQuery) -> Tuple[PostingList, int]:
        """Fold the frequency-ordered conjuncts into one running result.

        The fold starts from the smallest list (the rewriter puts NOTs
        last) and :meth:`_restrict` applies each later conjunct to it:

        - once the result is empty, the conjunct is charge-only;
        - ``NOT x`` subtracts ``x`` without materializing the complement;
        - a nested ``AND`` threads the result through its own conjuncts;
        - an ``OR`` of ``k`` disjuncts unions ``current AND d_i`` when
          ``len(current) * k`` is at most the rewriter's charge-free
          directory estimate of the OR (a cost rule, not a knob): a
          selective conjunct probes each list, galloping through a disk
          list's skip table, instead of merging them all.  Otherwise the
          OR is unioned in full, then intersected;
        - a phrase or proximity conjunct of ``w`` words merges positions
          only within ``current`` by the same rule, with ``k = w``;
        - anything else is evaluated, then intersected.

        A restricted result is never memoized; a memoized ``AND``/``OR``
        intersects its cached full result instead.  Every leaf still
        reaches :meth:`_eval` or :meth:`_charge`, so the charges cannot
        move.
        """
        _check_operands(node)
        current, processed = self._eval(node.operands[0])
        current, restricted = self._fold(node.operands[1:], current)
        return current, processed + restricted

    def _fold(
        self, operands: Tuple[SearchNode, ...], current: PostingList
    ) -> Tuple[PostingList, int]:
        processed = 0
        for operand in operands:
            current, evaluated = self._restrict(operand, current)
            processed += evaluated
        return current, processed

    def _restrict(
        self, node: SearchNode, current: PostingList
    ) -> Tuple[PostingList, int]:
        """``current AND node``, by the rules in :meth:`_compute_and`."""
        if not len(current):
            return current, self._charge(node)
        if isinstance(node, NotQuery):
            postings, processed = self._eval(node.operand)
            return difference(current, postings), processed
        if node not in self._memo:
            if isinstance(node, AndQuery):
                return self._fold(node.operands, current)
            if isinstance(node, OrQuery) and len(current) * len(
                node.operands
            ) <= estimated_result_size(self.index, node):
                restricted = [
                    self._restrict(operand, current) for operand in node.operands
                ]
                return (
                    union_many([postings for postings, _ in restricted]),
                    sum(processed for _, processed in restricted),
                )
            if isinstance(node, (PhraseQuery, ProximityQuery)):
                size = estimated_result_size(self.index, node)
                if len(current) * len(positional_words(node)) <= size:
                    return self._positional(node, current)
        postings, processed = self._eval(node)
        return intersect(current, postings), processed

    def _positional(
        self, node: SearchNode, current: Optional[PostingList] = None
    ) -> Tuple[PostingList, int]:
        """A phrase or proximity conjunct (``AND current`` when given: each
        merge first cuts both sides to the docs that can survive).  Every
        lookup charges; a word met again reuses its first list's decode."""
        near = isinstance(node, ProximityQuery)
        low, high = (-node.distance, node.distance) if near else (1, 1)
        keys = [(node.field, word) for word in positional_words(node)]
        lists = [self._words.setdefault(key, self.index.lookup(*key)) for key in keys]
        processed = sum(len(postings) for postings in lists)
        chain = lists[0]
        for following in lists[1:]:
            if current is not None:
                current = select_docs(following, select_docs(chain, current))
                chain = select_docs(chain, current, positions=True)
                following = select_docs(following, current, positions=True)
            chain = positional_intersect(chain, following, low, high)
            if not len(chain):
                break
        return chain.without_positions(), processed

    def _charge(self, node: SearchNode) -> int:
        """Retrieve a subtree's lists (charging pages) without merging.

        Returns the subtree's ``postings_processed`` — identical to what
        evaluating it would contribute, because the reference engine
        always retrieves every named list even when a merge could have
        stopped early.
        """
        index = self.index
        if isinstance(node, TermQuery):
            return len(index.lookup(node.field, node.term))
        if isinstance(node, TruncatedQuery):
            return sum(
                len(postings)
                for _, postings in index.lookup_prefix(node.field, node.prefix)
            )
        if isinstance(node, (PhraseQuery, ProximityQuery)):
            return sum(len(index.lookup(node.field, w)) for w in positional_words(node))
        if isinstance(node, (AndQuery, OrQuery)):
            return sum(self._charge(operand) for operand in node.operands)
        if isinstance(node, NotQuery):
            return self._charge(node.operand)
        raise TextSystemError(f"unknown search node {type(node).__name__}")


def matches_document(document: Document, query: SearchNode) -> bool:
    """Brute-force reference semantics: does the document match the query?

    Used in tests to cross-check :func:`evaluate`; never used in the query
    processing path (the paper assumes the text system only exposes
    search/retrieve).
    """
    if isinstance(query, TermQuery):
        return query.term in tokenize(document.field(query.field))

    if isinstance(query, TruncatedQuery):
        return any(
            token.startswith(query.prefix)
            for token in tokenize(document.field(query.field))
        )

    if isinstance(query, PhraseQuery):
        tokens = tokenize(document.field(query.field))
        width = len(query.words)
        return any(
            tuple(tokens[start : start + width]) == query.words
            for start in range(len(tokens) - width + 1)
        )

    if isinstance(query, ProximityQuery):
        tokens = tokenize(document.field(query.field))
        left_positions = [i for i, token in enumerate(tokens) if token == query.left]
        right_positions = [i for i, token in enumerate(tokens) if token == query.right]
        return any(
            abs(right - left) <= query.distance
            for left in left_positions
            for right in right_positions
        )

    if isinstance(query, AndQuery):
        _check_operands(query)
        return all(matches_document(document, operand) for operand in query.operands)

    if isinstance(query, OrQuery):
        _check_operands(query)
        return any(matches_document(document, operand) for operand in query.operands)

    if isinstance(query, NotQuery):
        return not matches_document(document, query.operand)

    raise TextSystemError(f"unknown search node {type(query).__name__}")
