"""Unit tests for the positional inverted index."""

import pytest

from repro.errors import UnknownFieldError
from repro.textsys.documents import DocumentStore
from repro.textsys.inverted_index import InvertedIndex


@pytest.fixture
def index(tiny_store):
    return InvertedIndex(tiny_store)


class TestLookup:
    def test_document_count(self, index):
        assert index.document_count == 4

    def test_term_postings(self, index):
        postings = index.lookup("title", "belief")
        assert [index.docid_of(p.doc) for p in postings] == ["d1", "d3"]

    def test_positions_recorded(self, index):
        postings = index.lookup("title", "update")
        # d1: "Belief update in AI systems" -> 'update' at offset 1
        assert postings[0].positions == (1,)

    def test_field_scoping(self, index):
        assert len(index.lookup("author", "belief")) == 0
        assert len(index.lookup("abstract", "belief")) == 2

    def test_missing_term_empty(self, index):
        assert len(index.lookup("title", "zzz")) == 0

    def test_unknown_field_raises(self, index):
        with pytest.raises(UnknownFieldError):
            index.lookup("nope", "belief")

    def test_document_frequency(self, index):
        assert index.document_frequency("title", "belief") == 2
        assert index.document_frequency("title", "zzz") == 0


class TestPrefix:
    def test_prefix_expansion(self, index):
        terms = [term for term, _ in index.lookup_prefix("title", "sys")]
        assert terms == ["systems"]

    def test_prefix_multiple(self, index):
        terms = [term for term, _ in index.lookup_prefix("abstract", "re")]
        assert terms == ["retrieval", "revision"]

    def test_prefix_no_match(self, index):
        assert index.lookup_prefix("title", "zzz") == []


class TestOrdinals:
    def test_round_trip(self, index):
        for docid in ("d1", "d2", "d3", "d4"):
            ordinal = [d.docid for d in index.store].index(docid)
            assert index.docid_of(ordinal) == docid

    def test_all_docs(self, index):
        assert index.all_docs().docs() == [0, 1, 2, 3]


class TestVocabulary:
    def test_sorted(self, index):
        vocabulary = index.vocabulary("title")
        assert vocabulary == sorted(vocabulary)

    def test_empty_field_text_skipped(self):
        store = DocumentStore(["title", "author"])
        store.add_record("a", title="only title")
        index = InvertedIndex(store)
        assert index.vocabulary("author") == []
