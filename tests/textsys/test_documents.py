"""Unit tests for documents and the document store."""

import pytest

from repro.errors import SchemaError, UnknownDocumentError, UnknownFieldError
from repro.textsys.documents import Document, DocumentStore


class TestDocument:
    def test_field_access(self):
        document = Document("d1", {"title": "hello"})
        assert document.field("title") == "hello"
        assert document.field("missing") == ""

    def test_empty_docid_rejected(self):
        with pytest.raises(SchemaError):
            Document("", {})

    def test_short_form(self):
        document = Document("d1", {"title": "t", "abstract": "a"})
        short = document.short_form(["title", "author"])
        assert short.docid == "d1"
        assert dict(short.fields) == {"title": "t"}


class TestDocumentStore:
    def test_add_and_get(self):
        store = DocumentStore(["title"])
        store.add_record("d1", title="x")
        assert store.get("d1").field("title") == "x"
        assert "d1" in store
        assert len(store) == 1

    def test_duplicate_docid_rejected(self):
        store = DocumentStore(["title"])
        store.add_record("d1", title="x")
        with pytest.raises(SchemaError):
            store.add_record("d1", title="y")

    def test_unknown_field_rejected(self):
        store = DocumentStore(["title"])
        with pytest.raises(UnknownFieldError):
            store.add_record("d1", body="x")

    def test_unknown_docid_raises(self):
        with pytest.raises(UnknownDocumentError):
            DocumentStore(["title"]).get("nope")

    def test_short_fields_validated(self):
        with pytest.raises(UnknownFieldError):
            DocumentStore(["title"], short_fields=["nope"])

    def test_needs_fields(self):
        with pytest.raises(SchemaError):
            DocumentStore([])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            DocumentStore(["a", "a"])

    def test_iteration_order(self):
        store = DocumentStore(["title"])
        for i in range(3):
            store.add_record(f"d{i}", title=str(i))
        assert [d.docid for d in store] == ["d0", "d1", "d2"]
