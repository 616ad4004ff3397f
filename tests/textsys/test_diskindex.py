"""Disk-backed index internals: codec round-trips, builder/reader, cache.

The property tests pin the storage formats (LEB128 uvarints, group
varint, delta-compressed posting blocks) against round-trip identity on
adversarial inputs — empty lists, single docs, adjacent docids, random
gaps, and full 64-bit extremes.  The builder/reader tests check that an
index streamed through disk (including the spill/merge path) reproduces
the in-memory :class:`InvertedIndex` exactly.
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TextSystemError
from repro.textsys.diskindex import (
    BlockCache,
    DiskIndexBuilder,
    DiskInvertedIndex,
    build_disk_index,
    read_index_meta,
)
from repro.textsys.diskindex.builder import MAGIC
from repro.textsys.diskindex.codec import (
    decode_block_docs,
    decode_block_positions,
    decode_group,
    encode_block,
    encode_group,
    read_uvarint,
    write_uvarint,
)
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.inverted_index import InvertedIndex

U64_MAX = (1 << 64) - 1
I64_MAX = (1 << 63) - 1


def encode_uvarint(value):
    """One varint as bytes, through the builder's writer."""
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


# ----------------------------------------------------------------------
# uvarint
# ----------------------------------------------------------------------
class TestUvarint:
    @given(value=st.integers(0, U64_MAX))
    def test_round_trip(self, value):
        decoded, end = read_uvarint(encode_uvarint(value), 0)
        assert decoded == value
        assert end == len(encode_uvarint(value))

    @given(values=st.lists(st.integers(0, U64_MAX), max_size=50))
    def test_concatenated_stream(self, values):
        buf = bytearray()
        for value in values:
            write_uvarint(buf, value)
        pos, out = 0, []
        for _ in values:
            value, pos = read_uvarint(buf, pos)
            out.append(value)
        assert out == values
        assert pos == len(buf)

    def test_boundaries(self):
        assert encode_uvarint(0) == b"\x00"
        assert encode_uvarint(127) == b"\x7f"
        assert len(encode_uvarint(128)) == 2
        assert read_uvarint(encode_uvarint(U64_MAX), 0)[0] == U64_MAX

    def test_out_of_range(self):
        with pytest.raises(TextSystemError):
            encode_uvarint(-1)
        with pytest.raises(TextSystemError):
            encode_uvarint(1 << 64)

    def test_truncated(self):
        with pytest.raises(TextSystemError):
            read_uvarint(b"\x80", 0)  # continuation bit, no next byte
        with pytest.raises(TextSystemError):
            read_uvarint(b"", 0)

    def test_overlong_overflow(self):
        # Eleven continuation bytes encode > 64 bits.
        with pytest.raises(TextSystemError):
            read_uvarint(b"\xff" * 10 + b"\x01", 0)


# ----------------------------------------------------------------------
# group varint
# ----------------------------------------------------------------------
class TestGroupVarint:
    @given(values=st.lists(st.integers(0, U64_MAX), max_size=40))
    def test_round_trip(self, values):
        buf = encode_group(values)
        decoded, end = decode_group(buf, 0, len(values))
        assert decoded == values
        assert end == len(buf)

    @given(
        values=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=17),
        prefix=st.binary(max_size=4),
    )
    def test_decode_at_offset(self, values, prefix):
        buf = prefix + encode_group(values)
        decoded, _ = decode_group(buf, len(prefix), len(values))
        assert decoded == values

    def test_empty(self):
        assert encode_group([]) == b""
        assert decode_group(b"", 0, 0) == ([], 0)

    def test_width_selection(self):
        # One tag byte + 1/2/4/8 data bytes per value.
        assert len(encode_group([0xFF, 0xFFFF, 0xFFFFFFFF, U64_MAX])) == 16

    def test_truncated(self):
        buf = encode_group([1, 2, 3, 4, 5])
        with pytest.raises(TextSystemError):
            decode_group(buf[:-1], 0, 5)

    def test_out_of_range(self):
        with pytest.raises(TextSystemError):
            encode_group([-1])
        with pytest.raises(TextSystemError):
            encode_group([1 << 64])


# ----------------------------------------------------------------------
# posting blocks
# ----------------------------------------------------------------------
def _strictly_increasing(draw, *, min_value, max_value, min_size, max_size):
    gaps = draw(
        st.lists(
            st.integers(1, 1 << 20), min_size=min_size, max_size=max_size
        )
    )
    docs, current = [], min_value - 1
    for gap in gaps:
        current += gap
        if current > max_value:
            break
        docs.append(current)
    return docs


@st.composite
def block_inputs(draw):
    docs = _strictly_increasing(
        draw, min_value=0, max_value=I64_MAX, min_size=1, max_size=30
    )
    if not docs:
        docs = [draw(st.integers(0, I64_MAX))]
    positions = []
    for _ in docs:
        pos_gaps = draw(st.lists(st.integers(1, 1000), max_size=6))
        current, acc = draw(st.integers(0, 1 << 30)), []
        for gap in pos_gaps:
            acc.append(current)
            current += gap
        positions.append(tuple(acc))
    return docs, tuple(positions)


class TestPostingBlock:
    @given(data=block_inputs())
    @settings(max_examples=200)
    def test_round_trip(self, data):
        docs, positions = data
        prev_last = -1 if docs[0] == 0 else docs[0] - 1
        buf = encode_block(docs, positions, prev_last)
        assert list(decode_block_docs(buf, prev_last)) == docs
        assert decode_block_positions(buf) == positions

    def test_single_doc(self):
        buf = encode_block([7], [(0, 3)], -1)
        assert list(decode_block_docs(buf, -1)) == [7]
        assert decode_block_positions(buf) == ((0, 3),)

    def test_adjacent_docids(self):
        docs = list(range(100, 120))
        buf = encode_block(docs, [()] * len(docs), 99)
        assert list(decode_block_docs(buf, 99)) == docs

    def test_64_bit_extremes(self):
        docs = [0, I64_MAX - 1, I64_MAX]
        buf = encode_block(docs, [(), (), ()], -1)
        decoded = decode_block_docs(buf, -1)
        assert decoded.typecode == "q"
        assert list(decoded) == docs

    def test_block_chaining(self):
        # Consecutive blocks delta against the previous block's last docid.
        first = encode_block([5, 9], [(), ()], -1)
        second = encode_block([10, 40], [(), ()], 9)
        assert list(decode_block_docs(first, -1)) == [5, 9]
        assert list(decode_block_docs(second, 9)) == [10, 40]

    def test_rejects_bad_blocks(self):
        with pytest.raises(TextSystemError):
            encode_block([], [], -1)
        with pytest.raises(TextSystemError):
            encode_block([3, 3], [(), ()], -1)  # not strictly increasing
        with pytest.raises(TextSystemError):
            encode_block([3], [(), ()], -1)  # length mismatch
        with pytest.raises(TextSystemError):
            encode_block([3], [(2, 2)], -1)  # positions not increasing
        with pytest.raises(TextSystemError):
            encode_block([3], [()], 3)  # docid not past prev_last


# ----------------------------------------------------------------------
# block cache
# ----------------------------------------------------------------------
class TestBlockCache:
    def test_hit_miss_accounting(self):
        cache = BlockCache(budget_bytes=1024)
        assert cache.get("a") is None
        cache.put("a", [1], 100)
        assert cache.get("a") == [1]
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.cached_bytes == 100

    def test_lru_eviction_under_budget(self):
        cache = BlockCache(budget_bytes=250)
        cache.put("a", "A", 100)
        cache.put("b", "B", 100)
        assert cache.get("a") == "A"  # refresh a; b is now LRU
        cache.put("c", "C", 100)
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.stats.evictions == 1
        assert cache.stats.cached_bytes <= 250

    def test_zero_budget_disables_caching(self):
        cache = BlockCache(budget_bytes=0)
        cache.put("a", "A", 10)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_oversized_value_bypasses(self):
        cache = BlockCache(budget_bytes=50)
        cache.put("big", "X", 100)
        assert cache.get("big") is None
        assert cache.stats.cached_bytes == 0

    def test_unbounded_budget(self):
        cache = BlockCache(budget_bytes=None)
        for i in range(100):
            cache.put(i, i, 10_000)
        assert cache.stats.evictions == 0
        assert len(cache) == 100

    def test_clear(self):
        cache = BlockCache(budget_bytes=1024)
        cache.put("a", "A", 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.cached_bytes == 0


# ----------------------------------------------------------------------
# builder / reader round-trip
# ----------------------------------------------------------------------
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]


def random_store(rng, doc_count):
    store = DocumentStore(["title", "body"], short_fields=["title"])
    for i in range(doc_count):
        store.add(
            Document(
                f"d{i}",
                {
                    "title": " ".join(rng.choices(WORDS, k=rng.randint(0, 5))),
                    "body": " ".join(rng.choices(WORDS, k=rng.randint(0, 12))),
                },
            )
        )
    return store


def assert_same_index(memory: InvertedIndex, disk: DiskInvertedIndex):
    assert disk.document_count == memory.document_count
    for ordinal in range(memory.document_count):
        assert disk.docid_of(ordinal) == memory.docid_of(ordinal)
    for field in memory.store.field_names:
        assert disk.vocabulary(field) == memory.vocabulary(field)
        for term in memory.vocabulary(field):
            expected = memory.lookup(field, term)
            actual = disk.lookup(field, term)
            assert len(actual) == len(expected), (field, term)
            assert actual.doc_array == expected.doc_array, (field, term)
            for index in range(len(expected)):
                assert actual.positions_at(index) == expected.positions_at(
                    index
                ), (field, term, index)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_disk_index_reproduces_memory_index(seed, tmp_path_factory):
    rng = random.Random(seed)
    store = random_store(rng, rng.randint(1, 40))
    path = tmp_path_factory.mktemp("diskindex") / f"s{seed}.idx"
    # Tiny blocks + forced spills exercise multi-block lists and the
    # k-way segment merge even on small corpora.
    build_disk_index(
        store,
        store.field_names,
        path,
        block_size=rng.choice([1, 2, 4, 128]),
        spill_postings=rng.choice([1, 7, None]),
    )
    with DiskInvertedIndex(path, io_mode=rng.choice(["mmap", "read"])) as disk:
        assert_same_index(InvertedIndex(store), disk)


class TestBuilderReader:
    @pytest.fixture()
    def built(self, tmp_path):
        rng = random.Random(42)
        store = random_store(rng, 30)
        path = tmp_path / "corpus.idx"
        build_disk_index(store, store.field_names, path, block_size=4)
        return store, path

    def test_metadata(self, built):
        store, path = built
        meta = read_index_meta(path)
        assert meta["format"] == "repro-diskindex-v1"
        assert meta["doc_count"] == len(store)
        assert meta["block_size"] == 4
        assert meta["fields"] == list(store.field_names)
        assert meta["file_size"] > 0

    def test_stats_and_io_shape(self, built):
        _, path = built
        with DiskInvertedIndex(path) as disk:
            stats = disk.stats()
            assert stats["doc_count"] == disk.document_count
            io = disk.io_stats()
            assert set(io) >= {"block_fetches", "bytes_read", "cache"}

    def test_missing_term_costs_nothing(self, built):
        _, path = built
        with DiskInvertedIndex(path) as disk:
            before = disk.pages_read
            postings = disk.lookup("title", "zzzznotaword")
            assert len(postings) == 0
            assert disk.pages_read == before
            assert disk.io_stats()["block_fetches"] == 0

    def test_charge_free_directory(self, built):
        store, path = built
        memory = InvertedIndex(store)
        with DiskInvertedIndex(path) as disk:
            for term in memory.vocabulary("body"):
                assert disk.list_length("body", term) == memory.list_length(
                    "body", term
                )
            assert disk.prefix_terms("body", "a") == memory.prefix_terms(
                "body", "a"
            )
            assert disk.pages_read == 0
            assert disk.io_stats()["block_fetches"] == 0

    def test_lookup_prefix_matches_memory(self, built):
        store, path = built
        memory = InvertedIndex(store)
        with DiskInvertedIndex(path) as disk:
            expected = memory.lookup_prefix("body", "g")
            actual = disk.lookup_prefix("body", "g")
            assert [t for t, _ in actual] == [t for t, _ in expected]
            for (_, got), (_, want) in zip(actual, expected):
                assert got.doc_array == want.doc_array
            assert disk.pages_read == memory.pages_read

    def test_rebuild_is_refused(self, built):
        _, path = built
        with DiskInvertedIndex(path) as disk:
            with pytest.raises(TextSystemError):
                disk.rebuild()

    def test_cold_vs_warm_cache_same_charges(self, built):
        _, path = built
        with DiskInvertedIndex(path) as disk:
            first = disk.lookup("body", "alpha")
            _ = first.doc_array, first.positions_at(0)
            cold_pages = disk.pages_read
            fetches_cold = disk.io_stats()["block_fetches"]
            second = disk.lookup("body", "alpha")
            _ = second.doc_array, second.positions_at(0)
            # Charged page reads double (same formula, twice); physical
            # fetches do not (blocks served from cache).
            assert disk.pages_read == 2 * cold_pages
            assert disk.io_stats()["block_fetches"] == fetches_cold
            assert disk.io_stats()["cache"]["hits"] > 0

    def test_zero_cache_budget_refetches(self, built):
        _, path = built
        with DiskInvertedIndex(path, cache_budget=0) as disk:
            for _ in range(2):
                postings = disk.lookup("body", "alpha")
                _ = postings.doc_array
            io = disk.io_stats()
            assert io["cache"]["hits"] == 0
            assert io["block_fetches"] > 0

    def test_corrupted_magic_rejected(self, built, tmp_path):
        _, path = built
        raw = bytearray(path.read_bytes())
        raw[: len(MAGIC)] = b"NOTANIDX"
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(TextSystemError):
            read_index_meta(bad)
        with pytest.raises(TextSystemError):
            DiskInvertedIndex(bad)

    def test_truncated_file_rejected(self, built, tmp_path):
        _, path = built
        bad = tmp_path / "trunc.idx"
        bad.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TextSystemError):
            read_index_meta(bad)

    def test_builder_abort_cleans_up(self, tmp_path):
        builder = DiskIndexBuilder(["title"], tmp_path / "x.idx")
        builder.add_document(Document("d0", {"title": "alpha beta"}))
        builder.abort()
        assert list(tmp_path.iterdir()) == []

    def test_gallop_into_matches_full_intersection(self, built):
        store, path = built
        memory = InvertedIndex(store)
        with DiskInvertedIndex(path) as disk:
            large = disk.lookup("body", "alpha")
            for probe_docs in ([], [0], list(range(0, 30, 3))):
                probes = array("q", probe_docs)
                expected = [
                    doc
                    for doc in probes
                    if doc in set(memory.lookup("body", "alpha").doc_array)
                ]
                assert list(large.gallop_into(probes)) == expected
