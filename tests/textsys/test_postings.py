"""Unit + property tests for posting lists and sorted-list merges."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from repro.textsys.diskindex import DiskInvertedIndex, build_disk_index
from repro.textsys.documents import DocumentStore
from repro.textsys.postings import (
    GALLOP_RATIO,
    Posting,
    PostingList,
    difference,
    intersect,
    intersect_linear,
    positional_intersect,
    union,
    union_many,
)

doc_sets = st.lists(st.integers(0, 50), unique=True, max_size=20).map(sorted)


def plist(docs):
    return PostingList.from_docs(docs)


DISK_TERMS = ["alpha", "beta", "gamma", "delta"]


@pytest.fixture(scope="module")
def disk_index(tmp_path_factory):
    """A tiny multi-block disk index: term ``t`` of ``DISK_TERMS`` occurs
    in every document whose number shares a bit with it."""
    store = DocumentStore(["body"], short_fields=["body"])
    for number in range(1, 16):
        words = [t for bit, t in enumerate(DISK_TERMS) if number & (1 << bit)]
        store.add_record(f"d{number}", body=" ".join(words))
    path = tmp_path_factory.mktemp("union") / "union.idx"
    build_disk_index(store, store.field_names, path, block_size=2)
    with DiskInvertedIndex(path) as index:
        yield index


class TestPostingList:
    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            PostingList([Posting(2), Posting(1)])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            PostingList([Posting(1), Posting(1)])

    def test_docs_and_len(self):
        lst = plist([1, 3, 5])
        assert lst.docs() == [1, 3, 5]
        assert len(lst) == 3

    def test_equality(self):
        assert plist([1, 2]) == plist([1, 2])
        assert plist([1]) != plist([2])


class TestSetOperations:
    def test_intersect(self):
        assert intersect(plist([1, 2, 3]), plist([2, 3, 4])).docs() == [2, 3]

    def test_union(self):
        assert union(plist([1, 3]), plist([2, 3])).docs() == [1, 2, 3]

    def test_difference(self):
        assert difference(plist([1, 2, 3]), plist([2])).docs() == [1, 3]

    def test_empty_operands(self):
        assert intersect(plist([]), plist([1])).docs() == []
        assert union(plist([]), plist([1])).docs() == [1]
        assert difference(plist([1]), plist([])).docs() == [1]


class TestPositionalIntersect:
    def test_phrase_gap(self):
        left = PostingList([Posting(1, (0, 5))])
        right = PostingList([Posting(1, (1, 9))])
        out = positional_intersect(left, right, min_gap=1, max_gap=1)
        assert out.docs() == [1]
        assert out[0].positions == (1,)

    def test_no_match_when_gap_wrong(self):
        left = PostingList([Posting(1, (0,))])
        right = PostingList([Posting(1, (3,))])
        assert len(positional_intersect(left, right, 1, 1)) == 0

    def test_proximity_either_order(self):
        left = PostingList([Posting(1, (10,))])
        right = PostingList([Posting(1, (7,))])
        out = positional_intersect(left, right, min_gap=-5, max_gap=5)
        assert out.docs() == [1]

    def test_chaining_three_word_phrase(self):
        # doc 1: "a b c" at positions 0 1 2
        a = PostingList([Posting(1, (0,))])
        b = PostingList([Posting(1, (1,))])
        c = PostingList([Posting(1, (2,))])
        ab = positional_intersect(a, b, 1, 1)
        abc = positional_intersect(ab, c, 1, 1)
        assert abc.docs() == [1]


@given(doc_sets, doc_sets)
def test_merges_match_python_sets(left, right):
    """The linear-time merges agree with Python set semantics."""
    l, r = plist(left), plist(right)
    assert intersect(l, r).docs() == sorted(set(left) & set(right))
    assert union(l, r).docs() == sorted(set(left) | set(right))
    assert difference(l, r).docs() == sorted(set(left) - set(right))


@given(doc_sets, doc_sets, doc_sets)
def test_merge_algebra(a, b, c):
    """Distributivity spot-check: A ∩ (B ∪ C) == (A ∩ B) ∪ (A ∩ C)."""
    pa, pb, pc = plist(a), plist(b), plist(c)
    left = intersect(pa, union(pb, pc))
    right = union(intersect(pa, pb), intersect(pa, pc))
    assert left.docs() == right.docs()


# ----------------------------------------------------------------------
# accelerated kernels == linear kernels
# ----------------------------------------------------------------------
class TestGallopingIntersect:
    """Skewed pairs take the galloping path; output must not change."""

    def test_skewed_pair_gallops_correctly(self):
        small = plist([3, 500, 999, 2001])
        large = plist(range(0, 3000, 3))
        assert len(large) >= GALLOP_RATIO * len(small)  # galloping path
        assert intersect(small, large).docs() == [3, 999, 2001]
        assert intersect(large, small).docs() == [3, 999, 2001]

    def test_small_list_past_end_of_large(self):
        small = plist([100, 200])
        large = plist(range(0, 50))
        assert len(large) >= GALLOP_RATIO * len(small)
        assert intersect(small, large).docs() == []

    @given(st.lists(st.integers(0, 30), unique=True, max_size=3).map(sorted))
    def test_gallop_matches_sets_against_long_list(self, small):
        large = plist(range(0, 400, 2))
        result = intersect(plist(small), large).docs()
        assert result == sorted(set(small) & set(range(0, 400, 2)))

    @given(doc_sets, doc_sets)
    def test_dispatching_intersect_equals_pinned_linear(self, left, right):
        l, r = plist(left), plist(right)
        assert intersect(l, r).docs() == intersect_linear(l, r).docs()


class TestKWayKernels:
    def test_union_many_of_none_is_empty(self):
        assert union_many([]).docs() == []

    def test_union_many_matches_pairwise_fold(self):
        lists = [plist([1, 5]), plist([2, 5, 9]), plist([]), plist([0, 9])]
        folded = reduce(union, lists)
        assert union_many(lists).docs() == folded.docs()

    @given(st.lists(doc_sets, max_size=6))
    def test_union_many_equals_the_pairwise_fold(self, doc_lists):
        """Zero operands, empty operands, one operand, duplicates across
        operands: always the fold's answer in a fresh array."""
        lists = [plist(docs) for docs in doc_lists]
        result = union_many(lists)
        assert result == reduce(union, lists, plist([]))
        assert all(result.doc_array is not operand.doc_array for operand in lists)

    @given(st.lists(st.sampled_from(DISK_TERMS + ["absent"]), max_size=5))
    def test_union_many_over_lazy_disk_lists(self, disk_index, terms):
        lists = [disk_index.lookup("body", term) for term in terms]
        result = union_many(lists)
        assert result == reduce(union, lists, plist([]))
        assert all(result.doc_array is not operand.doc_array for operand in lists)

    @given(st.lists(doc_sets, min_size=1, max_size=6))
    def test_kway_kernels_match_python_sets(self, doc_lists):
        lists = [plist(docs) for docs in doc_lists]
        union_expected = sorted(set().union(*map(set, doc_lists)))
        intersect_expected = sorted(
            set.intersection(*map(set, doc_lists))
        ) if all(doc_lists) else []
        assert union_many(lists).docs() == union_expected
        assert reduce(intersect, lists).docs() == intersect_expected


class TestArrayBackedRepresentation:
    def test_positions_materialized_only_when_present(self):
        bare = plist([1, 2, 3])
        assert bare.positions_at(1) == ()
        positional = PostingList([Posting(1, (4, 7))])
        assert positional.positions_at(0) == (4, 7)

    def test_without_positions_shares_docids(self):
        positional = PostingList([Posting(1, (4,)), Posting(2, (5,))])
        stripped = positional.without_positions()
        assert stripped.docs() == [1, 2]
        assert stripped.positions_at(0) == ()
        assert stripped == plist([1, 2])  # positions-free equality

    def test_merges_drop_positions(self):
        left = PostingList([Posting(1, (0,)), Posting(2, (3,))])
        right = PostingList([Posting(2, (8,))])
        assert intersect(left, right)[0].positions == ()
        assert union(left, right)[0].positions == ()
