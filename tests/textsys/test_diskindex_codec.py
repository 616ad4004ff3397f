"""The table-driven block codec against its oracle, its faults, its bytes.

Three guards for ``repro.textsys.diskindex.codec``:

- **differential** — :func:`decode_group` must agree with the per-value
  decoder it replaced (``reference_codec.py``) on every tag byte, every
  partial-group size, every buffer type the reader can hand it, and on
  which inputs raise;
- **faults** — a truncated or corrupted block ends in
  :class:`TextSystemError`, never in wrong docids or a bare
  ``struct.error`` / ``IndexError`` / ``OverflowError``;
- **format** — the file the builder writes is byte-for-byte the
  ``repro-diskindex-v1`` file the previous codec wrote (sha256 recorded
  from the commit before the kernels changed).
"""

import hashlib
import mmap
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TextSystemError
from repro.textsys.diskindex import (
    DiskInvertedIndex,
    build_disk_index,
    read_index_meta,
)
from repro.textsys.diskindex import codec
from repro.textsys.diskindex.codec import (
    decode_block_docs,
    decode_block_positions,
    decode_group,
    encode_block,
    encode_group,
)
from repro.workload import iter_synthetic_documents

from tests.textsys.reference_codec import reference_decode_group

U64_MAX = (1 << 64) - 1

#: Three worst-case groups (tag + 4 x 8 bytes): enough for any count ≤ 9.
SPAN = 3 * 33


def outcome(function, *args):
    """``("ok", result)`` or ``("error",)``; anything but
    :class:`TextSystemError` propagates and fails the test."""
    try:
        return ("ok", function(*args))
    except TextSystemError:
        return ("error",)


def tagged_spans() -> bytes:
    """One buffer holding, for each tag byte, that tag followed by
    seeded random bytes (which double as the later groups' tags)."""
    rng = random.Random(16)
    out = bytearray()
    for tag in range(256):
        out.append(tag)
        out += bytes(rng.randrange(256) for _ in range(SPAN - 1))
    return bytes(out)


@pytest.fixture(scope="module")
def mapped_spans():
    data = tagged_spans()
    mapped = mmap.mmap(-1, len(data))
    mapped.write(data)
    yield data, mapped
    mapped.close()


class TestKernelAgainstReference:
    def test_every_tag_count_and_buffer_type(self, mapped_spans):
        data, mapped = mapped_spans
        buffers = [data, bytearray(data), memoryview(data), mapped]
        for tag in range(256):
            pos = tag * SPAN
            assert data[pos] == tag
            for count in range(10):
                expected = reference_decode_group(data, pos, count)
                for buf in buffers:
                    assert decode_group(buf, pos, count) == expected
                # What the mmap reader passes: a slice, decoded from 0.
                values, end = decode_group(mapped[pos : pos + SPAN], 0, count)
                assert (values, end + pos) == expected

    @given(
        buf=st.binary(max_size=80),
        pos=st.integers(0, 8),
        count=st.integers(0, 9),
    )
    @settings(max_examples=500)
    def test_arbitrary_bytes_same_outcome(self, buf, pos, count):
        expected = outcome(reference_decode_group, buf, pos, count)
        for flavour in (buf, bytearray(buf), memoryview(buf)):
            assert outcome(decode_group, flavour, pos, count) == expected

    @given(
        values=st.lists(st.integers(0, U64_MAX), max_size=21),
        prefix=st.binary(max_size=5),
    )
    def test_full_u64_round_trip_agrees(self, values, prefix):
        buf = prefix + encode_group(values)
        expected = (values, len(buf))
        assert reference_decode_group(buf, len(prefix), len(values)) == expected
        assert decode_group(buf, len(prefix), len(values)) == expected

    @given(
        values=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=21),
        cut=st.integers(1, 8),
    )
    def test_truncation_same_outcome(self, values, cut):
        buf = encode_group(values)[:-cut]
        assert outcome(decode_group, buf, 0, len(values)) == outcome(
            reference_decode_group, buf, 0, len(values)
        )

    @pytest.mark.parametrize("bad", [-1, -300, 1 << 64, 1 << 70])
    def test_out_of_range_value_is_named(self, bad):
        with pytest.raises(TextSystemError, match=f"out of range: {bad}$"):
            encode_group([1, 2, 3, 4, 5, bad, 7])


def dense_block(n_docs, prev_last=9):
    """Adjacent docids: every gap is 1, the one-byte fast path's case."""
    docs = list(range(prev_last + 1, prev_last + 1 + n_docs))
    return docs, tuple((index % 5, index % 5 + 2) for index in range(n_docs))


FAULT_BLOCKS = {
    "dense": dense_block(9),
    "mixed_widths": (
        [3, 300, 70_000, 5_000_000_000, 5_000_000_001, 5_000_000_300],
        ((0,), (), (1, 2, 3), (7,), (), (4, 90)),
    ),
    "wide_positions": (
        [10, 11, 12],
        ((0, 127), (128, 300, 20_000), ()),
    ),
}


class TestBlockFaults:
    @pytest.mark.parametrize("name", sorted(FAULT_BLOCKS))
    def test_every_prefix_raises_text_system_error(self, name):
        docs, positions = FAULT_BLOCKS[name]
        prev_last = docs[0] - 1
        buf = encode_block(docs, positions, prev_last)
        assert list(decode_block_docs(buf, prev_last)) == docs
        assert decode_block_positions(buf) == positions
        # The docid section ends where the header says; a prefix that
        # still holds all of it decodes docids, a shorter one must raise.
        _, n_docs_len = codec.read_uvarint(buf, 0)
        doc_bytes_len = buf[n_docs_len]
        docs_end = n_docs_len + 1 + doc_bytes_len
        for length in range(len(buf)):
            prefix = buf[:length]
            decoded = outcome(decode_block_docs, prefix, prev_last)
            if length < docs_end:
                assert decoded == ("error",), length
            else:
                assert list(decoded[1]) == docs, length
            assert outcome(decode_block_positions, prefix) == ("error",), length

    def test_flipped_tag_byte_is_detected(self):
        docs, positions = dense_block(8)
        buf = bytearray(encode_block(docs, positions, 9))
        assert buf[:3] == bytes([8, 10, 0x00])  # n_docs, doc_bytes_len, tag
        buf[2] = 0x01  # first gap now claims two bytes
        with pytest.raises(TextSystemError):
            decode_block_docs(bytes(buf), 9)

    def test_ordinal_past_63_bits_is_text_system_error(self):
        buf = encode_block([(1 << 63) + 5], [()], -1)
        with pytest.raises(TextSystemError):
            decode_block_docs(buf, -1)
        near = encode_block([10], [()], 9)
        with pytest.raises(TextSystemError):
            decode_block_docs(near, (1 << 63) - 1)

    def test_empty_block_header_is_rejected(self):
        with pytest.raises(TextSystemError):
            decode_block_docs(b"\x00\x00", -1)

    def test_section_shorter_than_header_claims(self):
        docs, positions = dense_block(8)
        buf = bytearray(encode_block(docs, positions, 9))
        buf[1] += 1  # doc_bytes_len one past the real section
        with pytest.raises(TextSystemError):
            decode_block_docs(bytes(buf), 9)

    def test_unused_tag_bits_of_a_partial_group_are_ignored(self):
        docs, positions = dense_block(5)
        buf = bytearray(encode_block(docs, positions, 9))
        assert buf[:2] == bytes([5, 7])
        buf[7] |= 0b0000_0100  # second group's tag: slot 1 holds no value
        assert list(decode_block_docs(bytes(buf), 9)) == docs

    @pytest.mark.parametrize("n_docs", [1, 3, 4, 5, 128])
    def test_one_gap_of_256_leaves_the_fast_path(self, n_docs, monkeypatch):
        calls = []
        real = codec.decode_group

        def spy(buf, pos, count):
            calls.append(count)
            return real(buf, pos, count)

        monkeypatch.setattr(codec, "decode_group", spy)
        docs, positions = dense_block(n_docs)
        dense = encode_block(docs, positions, 9)
        assert list(decode_block_docs(dense, 9)) == docs
        assert calls == []  # one-byte gaps: no group decode at all

        for wide in {0, n_docs // 2, n_docs - 1}:
            shifted = docs[:wide] + [doc + 255 for doc in docs[wide:]]
            near_miss = encode_block(shifted, positions, 9)
            assert len(near_miss) == len(dense) + 1
            calls.clear()
            assert list(decode_block_docs(near_miss, 9)) == shifted
            assert calls == [n_docs]


#: sha256 of the index file over the corpus below, recorded from the
#: commit *before* the table-driven codec (block_size -> digest, size).
GOLDEN = {
    128: (
        "7b86d8ba44ef0d2b3b29d54f666763f791dda5d8b3068eb78c7230ee323a12f7",
        36333,
        4.627,
    ),
    4: (
        "2dff154659e325eead957606ce67080bfc94832a3ade88bd9fb0c663f2821945",
        42769,
        5.446,
    ),
}


@pytest.mark.parametrize("block_size", sorted(GOLDEN))
def test_index_file_bytes_unchanged(block_size, tmp_path):
    digest, file_size, bytes_per_posting = GOLDEN[block_size]
    path = build_disk_index(
        iter_synthetic_documents(300, seed=7, vocabulary_size=200),
        ["title", "abstract"],
        tmp_path / "golden.idx",
        block_size=block_size,
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    meta = read_index_meta(path)
    assert meta["format"] == "repro-diskindex-v1"
    assert meta["file_size"] == file_size
    with DiskInvertedIndex(path) as index:
        assert index.stats()["bytes_per_posting"] == bytes_per_posting
