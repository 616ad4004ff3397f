"""Posting lists and sorted-list set operations.

Per Section 2.1: "In an inverted index, each word is associated with an
inverted list of postings that record the docids of documents in which the
word appears. ... Typically the lists are sorted and set operations take
time linear in the lengths of the lists."

A :class:`PostingList` is a docid-sorted sequence of postings (docid +
word positions within the field).  Internally the docids live in a flat
``array('q')`` of index-internal integer ordinals, with the position
tuples kept in a parallel structure that is materialized only for the
phrase/proximity paths that need it — Boolean merges never touch
positions, so they run over plain machine integers.

Two families of kernels operate on these lists:

- the *linear* two-pointer merges the paper's cost model assumes
  (:func:`intersect`, :func:`union`, :func:`difference`,
  :func:`positional_intersect`);
- *accelerated* kernels with the same outputs: a galloping
  (exponential-search) intersection for skewed list pairs
  (:func:`intersect`, automatic dispatch) and a k-way set union
  (:func:`union_many`) that replaces quadratic pairwise folding for
  wide OR fan-ins.

All kernels drop positions (matching the Boolean semantics of the
original merges) and return ordinal-sorted lists; only the *wall-clock*
behaviour differs, never the result.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Posting",
    "PostingList",
    "intersect",
    "intersect_linear",
    "union",
    "union_many",
    "difference",
    "positional_intersect",
    "GALLOP_RATIO",
]

#: Switch the pairwise intersection to galloping search when the longer
#: list is at least this many times the shorter one.  At that skew the
#: ``|small| * log |large|`` bisections (C-speed) beat the
#: ``|small| + |large|`` interpreter steps of the linear merge.
GALLOP_RATIO = 8

_EMPTY = array("q")


@dataclass(frozen=True)
class Posting:
    """One posting: a document ordinal plus the word positions of the term.

    ``doc`` is the index-internal integer ordinal of the document (assigned
    in indexing order), which keeps list merges cheap and docid-order
    total.  ``positions`` is a sorted tuple of word offsets in the field.
    """

    doc: int
    positions: Tuple[int, ...] = ()


class PostingList:
    """A docid-ordinal-sorted, immutable list of postings.

    Docids are stored in an ``array('q')``; positions, when any posting
    carries them, in a parallel tuple-of-tuples (``None`` for a
    positions-free list).  :class:`Posting` views are materialized lazily
    on item access, so the merge kernels never pay per-posting object
    construction.
    """

    __slots__ = ("_docs", "_positions")

    def __init__(self, postings: Iterable[Posting] = ()) -> None:
        docs = array("q")
        positions: List[Tuple[int, ...]] = []
        has_positions = False
        previous: Optional[int] = None
        for posting in postings:
            doc = posting.doc
            if previous is not None and previous >= doc:
                raise ValueError("postings must be strictly sorted by doc")
            previous = doc
            docs.append(doc)
            positions.append(posting.positions)
            if posting.positions:
                has_positions = True
        self._docs = docs
        self._positions: Optional[Tuple[Tuple[int, ...], ...]] = (
            tuple(positions) if has_positions else None
        )

    # ------------------------------------------------------------------
    # trusted fast constructors (kernels and the index builder)
    # ------------------------------------------------------------------
    @classmethod
    def _from_sorted(
        cls,
        docs: array,
        positions: Optional[Tuple[Tuple[int, ...], ...]] = None,
    ) -> "PostingList":
        """Wrap an already strictly-sorted ``array('q')`` without copying.

        Internal: callers guarantee sortedness and must never mutate
        ``docs`` afterwards.
        """
        out = cls.__new__(cls)
        out._docs = docs
        out._positions = positions
        return out

    @classmethod
    def from_docs(cls, docs: Iterable[int]) -> "PostingList":
        """Build a positions-free list from sorted doc ordinals."""
        out = array("q", docs)
        previous: Optional[int] = None
        for doc in out:
            if previous is not None and previous >= doc:
                raise ValueError("postings must be strictly sorted by doc")
            previous = doc
        return cls._from_sorted(out)

    # ------------------------------------------------------------------
    # sequence protocol (Posting views, for compatibility)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Posting]:
        if self._positions is None:
            return (Posting(doc) for doc in self._docs)
        return (
            Posting(doc, positions)
            for doc, positions in zip(self._docs, self._positions)
        )

    def __getitem__(self, index: int) -> Posting:
        if self._positions is None:
            return Posting(self._docs[index])
        return Posting(self._docs[index], self._positions[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        if self._docs != other._docs:
            return False
        if self._positions == other._positions:
            return True
        # A positions-free list equals one whose postings all carry ().
        mine = self._positions or ((),) * len(self._docs)
        theirs = other._positions or ((),) * len(other._docs)
        return mine == theirs

    def __repr__(self) -> str:
        return f"PostingList({list(self._docs)})"

    # ------------------------------------------------------------------
    # raw access (the kernels' view)
    # ------------------------------------------------------------------
    @property
    def doc_array(self) -> array:
        """The underlying sorted ``array('q')`` of ordinals (do not mutate)."""
        return self._docs

    def positions_at(self, index: int) -> Tuple[int, ...]:
        """The position tuple of the posting at ``index`` (() if none)."""
        if self._positions is None:
            return ()
        return self._positions[index]

    def docs(self) -> List[int]:
        """The document ordinals, sorted ascending."""
        return list(self._docs)

    def without_positions(self) -> "PostingList":
        """This list with positions dropped (shares the docid array)."""
        if self._positions is None:
            return self
        return PostingList._from_sorted(self._docs)


# ----------------------------------------------------------------------
# array kernels
# ----------------------------------------------------------------------
def _intersect_linear(small: array, large: array) -> array:
    out = array("q")
    append = out.append
    i = j = 0
    len_a, len_b = len(small), len(large)
    while i < len_a and j < len_b:
        a, b = small[i], large[j]
        if a == b:
            append(a)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return out


def _intersect_gallop(small: array, large: array) -> array:
    """Intersect by bisecting each element of the short list into the long
    one, advancing a moving lower bound (exponential/galloping search with
    a C-implemented probe)."""
    out = array("q")
    append = out.append
    lo = 0
    hi = len(large)
    for doc in small:
        lo = bisect_left(large, doc, lo, hi)
        if lo == hi:
            break
        if large[lo] == doc:
            append(doc)
            lo += 1
    return out


def _intersect_arrays(left: array, right: array) -> array:
    if len(left) > len(right):
        left, right = right, left
    if not left:
        return array("q")
    if len(right) >= GALLOP_RATIO * len(left):
        return _intersect_gallop(left, right)
    return _intersect_linear(left, right)


def _union_arrays(left: array, right: array) -> array:
    if not left:
        return array("q", right)
    if not right:
        return array("q", left)
    out = array("q")
    append = out.append
    i = j = 0
    len_a, len_b = len(left), len(right)
    while i < len_a and j < len_b:
        a, b = left[i], right[j]
        if a == b:
            append(a)
            i += 1
            j += 1
        elif a < b:
            append(a)
            i += 1
        else:
            append(b)
            j += 1
    if i < len_a:
        out.extend(left[i:])
    if j < len_b:
        out.extend(right[j:])
    return out


def _union_many_arrays(arrays: Sequence[array]) -> array:
    # One hash-set union and one sort, both in C: ordinals are plain
    # ints, so sorting the distinct set reproduces the merge order.
    return array("q", sorted(set().union(*arrays)))


def _difference_arrays(left: array, right: array) -> array:
    if not right:
        return array("q", left)
    out = array("q")
    append = out.append
    i = j = 0
    len_a, len_b = len(left), len(right)
    while i < len_a and j < len_b:
        a, b = left[i], right[j]
        if a == b:
            i += 1
            j += 1
        elif a < b:
            append(a)
            i += 1
        else:
            j += 1
    if i < len_a:
        out.extend(left[i:])
    return out


# ----------------------------------------------------------------------
# public PostingList operations
# ----------------------------------------------------------------------
def intersect(left: PostingList, right: PostingList) -> PostingList:
    """Docs present in both lists (positions dropped).

    Dispatches to galloping search when the lengths are skewed by at
    least :data:`GALLOP_RATIO`, linear merge otherwise; the output is
    identical either way.

    A list that still lives on disk (see :mod:`repro.textsys.diskindex`)
    may expose a ``gallop_into`` hook; on the skewed path the hook is
    preferred, because it answers the same membership probes by
    bisecting the list's *skip table* and decoding only the touched
    compressed blocks — the short list drives, the long list is never
    materialized.  An empty operand short-circuits for the same reason.
    """
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    if not len(small):
        return PostingList._from_sorted(array("q"))
    if len(large) >= GALLOP_RATIO * len(small):
        gallop_hook = getattr(large, "gallop_into", None)
        if gallop_hook is not None:
            return PostingList._from_sorted(gallop_hook(small.doc_array))
    return PostingList._from_sorted(_intersect_arrays(left._docs, right._docs))


def intersect_linear(left: PostingList, right: PostingList) -> PostingList:
    """The paper's linear two-pointer intersection, never galloping.

    The reference engine pins this kernel so the accelerated dispatch in
    :func:`intersect` has a fixed oracle — and benchmark baseline — that
    costs ``|left| + |right|`` interpreter steps regardless of skew.
    """
    return PostingList._from_sorted(_intersect_linear(left._docs, right._docs))


def union(left: PostingList, right: PostingList) -> PostingList:
    """Docs present in either list (positions dropped)."""
    return PostingList._from_sorted(_union_arrays(left._docs, right._docs))


def union_many(lists: Sequence[PostingList]) -> PostingList:
    """Union any number of lists in one pass: set union, then sort.

    Equivalent to folding :func:`union` pairwise (and never aliasing an
    operand) but one C-level pass over the total number of postings
    instead of quadratic in the operand count — the shape OR-batched
    semi-joins produce.
    """
    return PostingList._from_sorted(
        _union_many_arrays([operand._docs for operand in lists])
    )


def difference(left: PostingList, right: PostingList) -> PostingList:
    """Docs in ``left`` but not in ``right`` (positions dropped)."""
    return PostingList._from_sorted(_difference_arrays(left._docs, right._docs))


def positional_intersect(
    left: PostingList, right: PostingList, min_gap: int, max_gap: int
) -> PostingList:
    """Docs where some position pair satisfies ``min_gap <= p_r - p_l <= max_gap``.

    The surviving postings carry the matching *right* positions, so chains
    of positional intersections implement multi-word phrases: for a phrase
    ``w1 w2 w3`` fold with ``min_gap = max_gap = 1``.  For proximity
    ``w1 nearN w2`` use ``min_gap = -N, max_gap = N``.
    """
    left_docs, right_docs = left._docs, right._docs
    out_docs = array("q")
    out_positions: List[Tuple[int, ...]] = []
    i = j = 0
    len_a, len_b = len(left_docs), len(right_docs)
    while i < len_a and j < len_b:
        a, b = left_docs[i], right_docs[j]
        if a == b:
            right_positions = right.positions_at(j)
            matched = tuple(
                sorted(
                    {
                        right_pos
                        for left_pos in left.positions_at(i)
                        for right_pos in right_positions
                        if min_gap <= right_pos - left_pos <= max_gap
                    }
                )
            )
            if matched:
                out_docs.append(a)
                out_positions.append(matched)
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    if not out_docs:
        return PostingList._from_sorted(out_docs)
    return PostingList._from_sorted(out_docs, tuple(out_positions))
