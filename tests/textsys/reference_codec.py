"""The per-value group-varint decoder, kept as the test oracle.

This is ``repro.textsys.diskindex.codec.decode_group`` as it stood
before the table-driven kernel replaced it, moved here verbatim: it
interprets the tag two bits at a time and reads every value with its
own slice + ``int.from_bytes``.  The differential tests in
``test_diskindex_codec.py`` and ``benchmarks/bench_diskindex.py
--smoke`` require the production decoder to agree with it on every
input, including the ones that must raise.
"""

from typing import List, Tuple

from repro.errors import TextSystemError

_GROUP_WIDTHS = (1, 2, 4, 8)


def reference_decode_group(buf, pos: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` group-varint values at ``pos``."""
    values: List[int] = []
    append = values.append
    from_bytes = int.from_bytes
    remaining = count
    try:
        while remaining > 0:
            tag = buf[pos]
            pos += 1
            for slot in range(min(4, remaining)):
                width = _GROUP_WIDTHS[(tag >> (2 * slot)) & 0x3]
                chunk = bytes(buf[pos : pos + width])
                if len(chunk) != width:
                    raise TextSystemError("truncated group varint")
                append(from_bytes(chunk, "little"))
                pos += width
            remaining -= 4
    except IndexError:
        raise TextSystemError("truncated group varint") from None
    return values, pos
