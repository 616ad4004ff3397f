"""Search-expression rewriting for the optimized evaluation kernels.

The optimizer-facing half of the engine's ``optimized`` mode: before a
query hits the merge kernels, :func:`rewrite` normalizes its *shape* —

- nested ``AND``/``OR`` nodes are flattened into one n-ary connective
  (OR-batched semi-joins routinely produce ``OR(OR(a, b), c)`` chains
  whose pairwise folding is quadratic);
- duplicate operands of a connective are dropped (``A AND A ≡ A``,
  ``A OR A ≡ A``) — the dropped subtrees are *returned*, not forgotten,
  because the cost accounting still owes ``postings_processed`` for
  every list the original query names;
- ``AND`` conjuncts are ordered by estimated document frequency (from
  the index directory, charge-free) so intersections start from the
  smallest list and can stop merging the moment they go empty, with
  NOT-conjuncts pushed last (they subtract from the running
  intersection).

Rewriting never changes which documents match, and — together with the
engine's charge-only pass over skipped/duplicate subtrees — never
changes ``postings_processed``, page reads, or any server counter
(DESIGN.md invariant: charge-identical optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import SearchSyntaxError, TextSystemError
from repro.textsys.inverted_index import InvertedIndex
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

__all__ = ["RewriteResult", "rewrite", "estimated_result_size"]


@dataclass(frozen=True)
class RewriteResult:
    """A rewritten query plus the duplicate subtrees the rewrite dropped.

    ``duplicates`` are semantically redundant (each one's twin is still
    in ``node``) but must still be charged: the evaluator runs a
    charge-only pass over them so the metered ``postings_processed`` is
    exactly what the unrewritten query would have paid.
    """

    node: SearchNode
    duplicates: Tuple[SearchNode, ...]


def estimated_result_size(index: InvertedIndex, node: SearchNode) -> int:
    """An ordering heuristic: an upper-ish bound on the result size.

    Reads only the index directory (charge-free).  Used to sort AND
    conjuncts ascending; correctness never depends on its accuracy.
    """
    if isinstance(node, TermQuery):
        return index.list_length(node.field, node.term)
    if isinstance(node, TruncatedQuery):
        return sum(
            index.list_length(node.field, term)
            for term in index.prefix_terms(node.field, node.prefix)
        )
    if isinstance(node, (PhraseQuery, ProximityQuery)):
        return min(index.list_length(node.field, w) for w in positional_words(node))
    if isinstance(node, AndQuery):
        return min(
            estimated_result_size(index, operand) for operand in node.operands
        )
    if isinstance(node, OrQuery):
        return min(
            index.document_count,
            sum(
                estimated_result_size(index, operand)
                for operand in node.operands
            ),
        )
    if isinstance(node, NotQuery):
        return max(
            0,
            index.document_count - estimated_result_size(index, node.operand),
        )
    raise TextSystemError(f"unknown search node {type(node).__name__}")


def _flatten(
    operands: Tuple[SearchNode, ...],
    connective: type,
    duplicates: List[SearchNode],
) -> List[SearchNode]:
    """Flatten same-connective children and drop exact duplicates."""
    flat: List[SearchNode] = []
    seen = set()  # concrete nodes are frozen dataclasses, hence hashable
    for operand in operands:
        rewritten = _rewrite(operand, duplicates)
        children = (
            rewritten.operands
            if isinstance(rewritten, connective)
            else (rewritten,)
        )
        for child in children:
            if child in seen:
                duplicates.append(child)
            else:
                seen.add(child)
                flat.append(child)
    return flat


def _rewrite(node: SearchNode, duplicates: List[SearchNode]) -> SearchNode:
    if isinstance(node, (TermQuery, PhraseQuery, TruncatedQuery, ProximityQuery)):
        return node
    if isinstance(node, NotQuery):
        return NotQuery(_rewrite(node.operand, duplicates))
    if isinstance(node, AndQuery):
        flat = _flatten(node.operands, AndQuery, duplicates)
        if len(flat) == 1:
            return flat[0]
        return AndQuery(tuple(flat))
    if isinstance(node, OrQuery):
        flat = _flatten(node.operands, OrQuery, duplicates)
        if len(flat) == 1:
            return flat[0]
        return OrQuery(tuple(flat))
    raise TextSystemError(f"unknown search node {type(node).__name__}")


def _order_conjuncts(index: InvertedIndex, node: SearchNode) -> SearchNode:
    """Recursively sort every AND's conjuncts: smallest estimate first,
    NOT-operands last (stable, so equal estimates keep query order)."""
    if isinstance(node, NotQuery):
        return NotQuery(_order_conjuncts(index, node.operand))
    if isinstance(node, OrQuery):
        return OrQuery(
            tuple(_order_conjuncts(index, operand) for operand in node.operands)
        )
    if isinstance(node, AndQuery):
        ordered = sorted(
            (_order_conjuncts(index, operand) for operand in node.operands),
            key=lambda operand: (
                isinstance(operand, NotQuery),
                estimated_result_size(index, operand),
            ),
        )
        return AndQuery(tuple(ordered))
    return node


def rewrite(index: InvertedIndex, node: SearchNode) -> RewriteResult:
    """Normalize a search expression for the optimized kernels.

    Returns the flattened, duplicate-free, frequency-ordered equivalent
    plus every dropped duplicate subtree (still owed its charges).
    Raises :class:`SearchSyntaxError` for malformed zero-operand
    connectives (possible only via deserialization that bypasses the
    dataclass constructors).
    """
    if isinstance(node, (AndQuery, OrQuery)) and not node.operands:
        raise SearchSyntaxError(
            f"{type(node).__name__} with no operands cannot be evaluated"
        )
    duplicates: List[SearchNode] = []
    rewritten = _rewrite(node, duplicates)
    return RewriteResult(
        node=_order_conjuncts(index, rewritten),
        duplicates=tuple(duplicates),
    )
