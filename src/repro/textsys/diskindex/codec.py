"""Integer and posting-block codecs for the disk index.

Two primitives:

- **LEB128 varints** (:func:`write_uvarint` / :func:`read_uvarint`) for
  counts, offsets, and position gaps — 7 payload bits per byte,
  arbitrary 64-bit range;
- **group varints** (:func:`encode_group` / :func:`decode_group`) for
  docid gaps: values are packed four to a group behind one tag byte
  whose four 2-bit codes select a 1/2/4/8-byte little-endian width per
  value.  Unlike the classic 1/2/3/4 grouping this variant round-trips
  the full unsigned 64-bit range, which the property tests exercise at
  the extremes.

On top of them, the **posting block** format
(:func:`encode_block` / :func:`decode_block_docs` /
:func:`decode_block_positions`): a block holds up to ``block_size``
postings of one term as

``[n_docs uvarint][doc_bytes_len uvarint][docid gaps, group varint]
[per-doc positions: n_pos uvarint, first pos uvarint, gaps uvarint]``

Docids are strictly increasing ordinals stored as gaps from the
previous block's last docid (``prev_last = -1`` for the first block), so
every gap is ≥ 1 and each block decodes independently given its skip
entry.  ``doc_bytes_len`` lets the reader decode docids without touching
the positions section (Boolean merges never need positions) and,
symmetrically, skip straight to positions when only those are wanted.

**Kernels.**  A tag byte has 256 values, so the layout of a full group
is looked up, not interpreted: :data:`_GROUP_CODECS` maps each tag to a
precompiled :class:`struct.Struct` for its four widths, and a full group
is one table lookup plus one C call in either direction (the decoder
reads the 1–3 values of a trailing partial group one by one; the encoder
zero-fills that group and drops the fill bytes).  One property of the
bytes themselves selects a bulk path: a docid section whose length is
exactly ``n_docs + ceil(n_docs / 4)`` with all-zero tags holds only
one-byte gaps (dense lists), so deleting every fifth byte *is* the
decode.  Positions are plain LEB128, read one varint at a time.  Every
path reads the same ``repro-diskindex-v1`` bytes, and every malformed
block — truncated, a docid section that does not end where the header
says, ordinals past 63 bits — raises
:class:`~repro.errors.TextSystemError`.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.errors import TextSystemError

__all__ = [
    "write_uvarint",
    "read_uvarint",
    "encode_group",
    "decode_group",
    "encode_block",
    "decode_block_docs",
    "decode_block_positions",
]

_MAX_U64 = (1 << 64) - 1

#: Group-varint width table: 2-bit code -> byte width.
_GROUP_WIDTHS = (1, 2, 4, 8)

#: The same widths as little-endian :mod:`struct` format characters.
_GROUP_FORMATS = "BHIQ"


def _group_codec(tag: int):
    layout = struct.Struct(
        "<" + "".join(_GROUP_FORMATS[(tag >> shift) & 0x3] for shift in (0, 2, 4, 6))
    )
    return layout.unpack_from, layout.pack, 1 + layout.size


#: tag byte -> (unpack_from, pack, group length in bytes including the
#: tag) for a full group of four values.
_GROUP_CODECS = tuple(_group_codec(tag) for tag in range(256))

#: ``int.bit_length()`` -> 2-bit width code; indexing past 64 bits raises.
_CODE_BY_BIT_LENGTH = (0,) * 9 + (1,) * 8 + (2,) * 16 + (3,) * 32


# ----------------------------------------------------------------------
# LEB128 varints
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint to ``out``."""
    if value < 0 or value > _MAX_U64:
        raise TextSystemError(f"uvarint out of range: {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(buf, pos: int) -> Tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``."""
    try:
        value = buf[pos]
        pos += 1
        if value < 0x80:
            return value, pos
        value &= 0x7F
        shift = 7
        while True:
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if value > _MAX_U64:
                    raise TextSystemError("uvarint overflows 64 bits")
                return value, pos
            shift += 7
            if shift > 63:
                raise TextSystemError("uvarint overflows 64 bits")
    except IndexError:
        raise TextSystemError("truncated uvarint") from None


# ----------------------------------------------------------------------
# group varints (1/2/4/8-byte widths; full 64-bit range)
# ----------------------------------------------------------------------
def encode_group(values: Sequence[int]) -> bytes:
    """Encode a sequence of unsigned 64-bit ints as group varints.

    Values are packed in groups of four behind a tag byte; a trailing
    partial group writes its tag and only the values it has — no pad
    bytes — and the decoder is told the true count.
    """
    out = bytearray()
    codes = _CODE_BY_BIT_LENGTH
    # Fill the last group with zeros (code 0, one byte each) so every
    # group packs as a full one; the fill bytes are dropped at the end.
    fill = -len(values) & 3
    if fill:
        values = list(values) + [0] * fill
    try:
        for start in range(0, len(values), 4):
            a, b, c, d = values[start : start + 4]
            tag = (
                codes[a.bit_length()]
                | codes[b.bit_length()] << 2
                | codes[c.bit_length()] << 4
                | codes[d.bit_length()] << 6
            )
            out.append(tag)
            out += _GROUP_CODECS[tag][1](a, b, c, d)
    except (IndexError, struct.error):
        # A bit length past 64 misses the code table; a negative value
        # is refused by the unsigned struct format.
        for value in values:
            if value < 0 or value > _MAX_U64:
                raise TextSystemError(
                    f"group varint value out of range: {value}"
                ) from None
        raise
    if fill:
        del out[-fill:]
    return bytes(out)


def decode_group(buf, pos: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` group-varint values at ``pos``."""
    values: List[int] = []
    extend = values.extend
    codecs = _GROUP_CODECS
    try:
        for _ in range(count >> 2):
            unpack_from, _pack, length = codecs[buf[pos]]
            extend(unpack_from(buf, pos + 1))
            pos += length
        remaining = count & 3
        if remaining:
            tag = buf[pos]
            pos += 1
            for slot in range(remaining):
                width = _GROUP_WIDTHS[(tag >> (2 * slot)) & 0x3]
                chunk = bytes(buf[pos : pos + width])
                if len(chunk) != width:
                    raise TextSystemError("truncated group varint")
                values.append(int.from_bytes(chunk, "little"))
                pos += width
    except (IndexError, struct.error):
        raise TextSystemError("truncated group varint") from None
    return values, pos


# ----------------------------------------------------------------------
# posting blocks
# ----------------------------------------------------------------------
def encode_block(
    docs: Sequence[int],
    positions: Sequence[Tuple[int, ...]],
    prev_last: int,
) -> bytes:
    """Encode one posting block (docids + per-doc positions).

    ``docs`` must be strictly increasing and all greater than
    ``prev_last`` (the last docid of the preceding block, ``-1`` for the
    first); ``positions`` holds one sorted, strictly-increasing tuple of
    word offsets per doc (may be empty).
    """
    if not docs:
        raise TextSystemError("cannot encode an empty posting block")
    if len(positions) != len(docs):
        raise TextSystemError("positions/docs length mismatch in block")
    gaps: List[int] = []
    previous = prev_last
    for doc in docs:
        if doc <= previous:
            raise TextSystemError("block docids must be strictly increasing")
        gaps.append(doc - previous)
        previous = doc
    doc_bytes = encode_group(gaps)

    pos_bytes = bytearray()
    for doc_positions in positions:
        write_uvarint(pos_bytes, len(doc_positions))
        last = None
        for position in doc_positions:
            if last is None:
                write_uvarint(pos_bytes, position)
            else:
                if position <= last:
                    raise TextSystemError(
                        "block positions must be strictly increasing"
                    )
                write_uvarint(pos_bytes, position - last)
            last = position

    out = bytearray()
    write_uvarint(out, len(docs))
    write_uvarint(out, len(doc_bytes))
    out += doc_bytes
    out += pos_bytes
    return bytes(out)


def decode_block_docs(buf, prev_last: int) -> array:
    """Decode just the docid ordinals of one block into an ``array('q')``."""
    n_docs, start = read_uvarint(buf, 0)
    doc_bytes_len, start = read_uvarint(buf, start)
    if n_docs < 1:
        raise TextSystemError("corrupt posting block")
    end = start + doc_bytes_len
    gaps = None
    if doc_bytes_len == n_docs + ((n_docs + 3) >> 2):
        # Only one-byte gaps fit in this length; with every tag zero the
        # section is the gaps themselves plus a tag every fifth byte.
        section = bytearray(buf[start:end])
        if len(section) == doc_bytes_len and not any(section[::5]):
            del section[::5]
            gaps = section
    if gaps is None:
        gaps, stop = decode_group(buf, start, n_docs)
        if stop != end:
            raise TextSystemError("corrupt posting block")
    try:
        # array() fills from a list faster than from a bare iterator.
        docs = array("q", list(accumulate(gaps, initial=prev_last)))
    except OverflowError:
        raise TextSystemError("corrupt posting block") from None
    del docs[0]  # the seed, not a posting
    return docs


def decode_block_positions(buf) -> Tuple[Tuple[int, ...], ...]:
    """Decode just the per-doc position tuples of one block."""
    n_docs, pos = read_uvarint(buf, 0)
    doc_bytes_len, pos = read_uvarint(buf, pos)
    pos += doc_bytes_len  # skip the docid section entirely
    out: List[Tuple[int, ...]] = []
    for _ in range(n_docs):
        n_positions, pos = read_uvarint(buf, pos)
        doc_positions: List[int] = []
        current = 0
        for index in range(n_positions):
            gap, pos = read_uvarint(buf, pos)
            current = gap if index == 0 else current + gap
            doc_positions.append(current)
        out.append(tuple(doc_positions))
    return tuple(out)
