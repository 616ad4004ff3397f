"""Unit tests for document-store persistence."""

import gzip
import json

import pytest

from repro.errors import TextSystemError
from repro.textsys.persistence import load_store, save_store
from repro.textsys.server import BooleanTextServer


class TestRoundTrip:
    def test_documents_survive(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        loaded = load_store(path)
        assert [d.docid for d in loaded] == [d.docid for d in tiny_store]
        for docid in [d.docid for d in tiny_store]:
            assert dict(loaded.get(docid).fields) == dict(
                tiny_store.get(docid).fields
            )

    def test_configuration_survives(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        loaded = load_store(path)
        assert loaded.field_names == tiny_store.field_names
        assert loaded.short_fields == tiny_store.short_fields

    def test_search_equivalent_after_reload(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        original = BooleanTextServer(tiny_store)
        reloaded = BooleanTextServer(load_store(path))
        for expression in ("TI='belief update'", "AU='gravano'", "TI='zzz'"):
            assert (
                original.search(expression).docids
                == reloaded.search(expression).docids
            )

    def test_unicode_round_trip(self, tmp_path):
        from repro.textsys.documents import DocumentStore

        store = DocumentStore(["title"])
        store.add_record("d1", title="naïve Bayes — résumé")
        path = tmp_path / "u.jsonl"
        save_store(store, path)
        assert load_store(path).get("d1").field("title") == "naïve Bayes — résumé"


class TestGzipAndHeader:
    def test_gz_suffix_round_trip(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl.gz"
        save_store(tiny_store, path)
        # Really gzip on disk, not plain text with a misleading name.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = load_store(path)
        assert [d.docid for d in loaded] == [d.docid for d in tiny_store]
        for docid in [d.docid for d in tiny_store]:
            assert dict(loaded.get(docid).fields) == dict(
                tiny_store.get(docid).fields
            )

    def test_header_declares_count(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["count"] == len(tiny_store)

    def test_progress_callback(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl.gz"
        save_store(tiny_store, path)
        calls = []
        load_store(path, progress=lambda loaded, total: calls.append((loaded, total)))
        # Tiny store: only the final call fires, with the declared total.
        assert calls == [(len(tiny_store), len(tiny_store))]

    def test_count_mismatch_is_an_error(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one document
        with pytest.raises(TextSystemError, match="declares"):
            load_store(path)

    def test_pre_count_files_still_load(self, tiny_store, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(tiny_store, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["count"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        calls = []
        loaded = load_store(
            path, progress=lambda n, total: calls.append((n, total))
        )
        assert [d.docid for d in loaded] == [d.docid for d in tiny_store]
        assert calls == [(len(tiny_store), None)]

    def test_bad_count_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            '{"format": "repro-docstore-v1", "fields": ["t"], '
            '"short_fields": [], "count": -3}\n'
        )
        with pytest.raises(TextSystemError, match="count"):
            load_store(path)

    def test_corrupt_gzip_reports_cleanly(self, tmp_path):
        path = tmp_path / "store.jsonl.gz"
        path.write_bytes(b"\x1f\x8bnot really gzip")
        with pytest.raises((TextSystemError, OSError, gzip.BadGzipFile)):
            load_store(path)


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TextSystemError, match="empty"):
            load_store(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TextSystemError, match="header"):
            load_store(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "fmt.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(TextSystemError, match="format"):
            load_store(path)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        path.write_text(
            '{"format": "repro-docstore-v1", "fields": ["t"], "short_fields": []}\n'
            "{broken\n"
        )
        with pytest.raises(TextSystemError, match="record"):
            load_store(path)
