"""Block-paged reader over the immutable disk index file.

:class:`DiskInvertedIndex` is a drop-in substitute for the in-memory
:class:`~repro.textsys.inverted_index.InvertedIndex`: the engine, the
rewriter, the Boolean server, sharding, and the gateway all run
unchanged on top of it.  Only the term dictionaries (the [DH91]
"main memory directory") and the docid table live in RAM; posting
blocks are fetched from the file on demand — ``mmap`` or ``seek+read``
— decoded, and kept in a byte-budgeted :class:`~repro.textsys.diskindex.
cache.BlockCache`.

**Charge identity (DESIGN invariant 13).**  ``lookup``/``lookup_prefix``
charge ``pages_for(len(list))`` page reads at call time, from the
dictionary's document frequency alone — the same formula, at the same
call sites, as the in-memory index — so ``pages_read`` (and everything
priced from it) is bit-identical between the two engines regardless of
what physically happens afterwards.  Physical I/O (blocks fetched,
bytes read, cache hits/misses) is metered separately in
:meth:`DiskInvertedIndex.io_stats` and depends on cache state, block
skipping, and which merges actually materialize — it is observability,
never a cost-model input.

**Skip-driven galloping.**  :meth:`lookup` returns a
:class:`DiskPostingList` that knows its length without decoding
anything.  When the engine's skewed-intersection path runs, the list's
:meth:`DiskPostingList.gallop_into` hook binary-searches the skip table
(max docid per block) and decodes *only* the candidate blocks, so an
``AND`` of a rare term with a huge list touches a handful of blocks
instead of the whole compressed list.
"""

from __future__ import annotations

import bisect
import json
import mmap
import struct
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import TextSystemError, UnknownFieldError
from repro.textsys.diskindex.builder import FORMAT, MAGIC, TRAILER_SIZE
from repro.textsys.diskindex.cache import (
    DEFAULT_CACHE_BUDGET,
    BlockCache,
)
from repro.textsys.diskindex.codec import (
    decode_block_docs,
    decode_block_positions,
    read_uvarint,
)
from repro.textsys.postings import PostingList

__all__ = ["DiskInvertedIndex", "DiskPostingList", "IOStats", "read_index_meta"]

_TRAILER = struct.Struct("<QQ8s")

#: Modes for fetching block bytes from the index file.
IO_MODES = ("mmap", "read")


class IOStats:
    """Physical I/O counters for one reader (observability only)."""

    __slots__ = ("block_fetches", "bytes_read", "blocks_decoded")

    def __init__(self) -> None:
        self.block_fetches = 0
        self.bytes_read = 0
        self.blocks_decoded = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "block_fetches": self.block_fetches,
            "bytes_read": self.bytes_read,
            "blocks_decoded": self.blocks_decoded,
        }


class _TermEntry:
    """One dictionary entry: everything the directory knows charge-free."""

    __slots__ = (
        "term",
        "df",
        "n_blocks",
        "data_offset",
        "skip_offset",
        "skip_length",
        "_skip",
    )

    def __init__(
        self,
        term: str,
        df: int,
        n_blocks: int,
        data_offset: int,
        skip_offset: int,
        skip_length: int,
    ) -> None:
        self.term = term
        self.df = df
        self.n_blocks = n_blocks
        self.data_offset = data_offset
        self.skip_offset = skip_offset
        self.skip_length = skip_length
        # Lazily decoded: (last_docids, block_offsets, block_lengths,
        # doc_counts, doc_starts).  Metadata-sized (one entry per block).
        self._skip: Optional[Tuple[List[int], List[int], List[int], List[int], List[int]]] = None


def read_index_meta(path: Union[str, Path]) -> dict:
    """Read and validate just the JSON meta footer of an index file."""
    path = Path(path)
    size = path.stat().st_size
    if size < len(MAGIC) + TRAILER_SIZE:
        raise TextSystemError(f"{path}: not a disk index (too small)")
    with path.open("rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise TextSystemError(f"{path}: bad index magic")
        handle.seek(size - TRAILER_SIZE)
        meta_offset, meta_length, trailer_magic = _TRAILER.unpack(
            handle.read(TRAILER_SIZE)
        )
        if trailer_magic != MAGIC:
            raise TextSystemError(f"{path}: truncated index (bad trailer)")
        handle.seek(meta_offset)
        try:
            meta = json.loads(handle.read(meta_length))
        except json.JSONDecodeError as error:
            raise TextSystemError(f"{path}: bad meta footer: {error}") from error
    if meta.get("format") != FORMAT:
        raise TextSystemError(
            f"{path}: unknown index format {meta.get('format')!r}"
        )
    meta["file_size"] = size
    return meta


class DiskPostingList(PostingList):
    """A posting list whose postings still live in the index file.

    Reports its length from the dictionary alone; decodes docids (and,
    separately, positions) only when a kernel actually touches them.
    The decoded views are cached on the instance, and every block fetch
    goes through the reader's shared block cache.
    """

    __slots__ = ("_reader", "_field", "_entry", "_lazy_docs", "_lazy_positions")

    def __init__(
        self, reader: "DiskInvertedIndex", field: str, entry: _TermEntry
    ) -> None:
        self._reader = reader
        self._field = field
        self._entry = entry
        self._lazy_docs: Optional[array] = None
        self._lazy_positions: Optional[Tuple[Tuple[int, ...], ...]] = None

    # The base class stores docids/positions in slots; shadow them with
    # materialize-on-demand properties so every inherited kernel and
    # sequence method works unchanged.
    @property  # type: ignore[override]
    def _docs(self) -> array:
        if self._lazy_docs is None:
            self._lazy_docs = self._reader._materialize_docs(
                self._field, self._entry
            )
        return self._lazy_docs

    @property  # type: ignore[override]
    def _positions(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        if self._lazy_positions is None:
            self._lazy_positions = self._reader._materialize_positions(
                self._field, self._entry
            )
        return self._lazy_positions

    def __len__(self) -> int:
        return self._entry.df

    def __repr__(self) -> str:
        return (
            f"DiskPostingList({self._field}:{self._entry.term!r}, "
            f"df={self._entry.df})"
        )

    def gallop_into(self, probes: array) -> array:
        """Intersect a small sorted ordinal array against this list.

        Skip-driven: for each probe the skip table names the only block
        that could contain it; only those blocks are fetched and
        decoded.  Output is identical to galloping over the fully
        decoded list.
        """
        return self._reader._gallop_into(self._field, self._entry, probes)


class DiskInvertedIndex:
    """The disk-backed index: same interface, same charges, bounded RAM.

    Parameters
    ----------
    path:
        An index file written by :class:`~repro.textsys.diskindex.
        builder.DiskIndexBuilder`.
    page_capacity:
        Postings per charged disk page — the cost-model constant shared
        with the in-memory index (default 256).
    cache_budget:
        Decoded-block cache budget in bytes (``0`` disables caching,
        ``None`` unbounded).
    io_mode:
        ``"mmap"`` (default) maps the file; ``"read"`` uses seek+read,
        keeping resident set strictly bounded by the cache budget.
    """

    DEFAULT_PAGE_CAPACITY = 256

    def __init__(
        self,
        path: Union[str, Path],
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        *,
        cache_budget: Optional[int] = DEFAULT_CACHE_BUDGET,
        io_mode: str = "mmap",
    ) -> None:
        if page_capacity < 1:
            raise ValueError("page_capacity must be positive")
        if io_mode not in IO_MODES:
            raise TextSystemError(
                f"unknown io_mode {io_mode!r}; known: {list(IO_MODES)}"
            )
        self.path = Path(path)
        self.page_capacity = page_capacity
        self.io_mode = io_mode
        #: Cumulative *charged* page reads (the cost-model counter).
        self.pages_read = 0
        self.cache = BlockCache(cache_budget)
        self.io = IOStats()

        self.meta = read_index_meta(self.path)
        #: The store version this index was built against.
        self.version = self.meta["version"]
        self.block_size = self.meta["block_size"]
        self.field_names: Tuple[str, ...] = tuple(self.meta["fields"])

        self._handle = self.path.open("rb")
        self._mmap: Optional[mmap.mmap] = None
        if io_mode == "mmap":
            self._mmap = mmap.mmap(
                self._handle.fileno(), 0, access=mmap.ACCESS_READ
            )

        self._dictionaries: Dict[str, Dict[str, _TermEntry]] = {}
        self._vocabularies: Dict[str, List[str]] = {}
        self._load_dictionaries()
        self._docid_list: List[str] = self._load_docids()
        self._docid_ordinals: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.cache.clear()

    def __enter__(self) -> "DiskInvertedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def rebuild(self) -> None:
        """Disk indexes are immutable; rebuild via the builder instead."""
        raise TextSystemError(
            "DiskInvertedIndex is immutable: re-run DiskIndexBuilder to "
            "index a mutated collection"
        )

    # ------------------------------------------------------------------
    # loading the in-memory directory
    # ------------------------------------------------------------------
    def _read_span(self, offset: int, length: int) -> bytes:
        if self._mmap is not None:
            return self._mmap[offset : offset + length]
        self._handle.seek(offset)
        return self._handle.read(length)

    def _load_dictionaries(self) -> None:
        for field in self.field_names:
            offset, length = self.meta["dict"][field]
            buf = self._read_span(offset, length)
            n_terms, pos = read_uvarint(buf, 0)
            entries: Dict[str, _TermEntry] = {}
            vocabulary: List[str] = []
            for _ in range(n_terms):
                term_len, pos = read_uvarint(buf, pos)
                term = bytes(buf[pos : pos + term_len]).decode("utf-8")
                pos += term_len
                df, pos = read_uvarint(buf, pos)
                n_blocks, pos = read_uvarint(buf, pos)
                data_offset, pos = read_uvarint(buf, pos)
                skip_offset, pos = read_uvarint(buf, pos)
                skip_length, pos = read_uvarint(buf, pos)
                entries[term] = _TermEntry(
                    term, df, n_blocks, data_offset, skip_offset, skip_length
                )
                vocabulary.append(term)
            self._dictionaries[field] = entries
            self._vocabularies[field] = vocabulary  # written in sorted order

    def _load_docids(self) -> List[str]:
        offset, length = self.meta["docids"]
        buf = self._read_span(offset, length)
        count, pos = read_uvarint(buf, 0)
        docids: List[str] = []
        for _ in range(count):
            docid_len, pos = read_uvarint(buf, pos)
            docids.append(bytes(buf[pos : pos + docid_len]).decode("utf-8"))
            pos += docid_len
        return docids

    # ------------------------------------------------------------------
    # skip tables and block fetch
    # ------------------------------------------------------------------
    def _skip_table(self, entry: _TermEntry):
        if entry._skip is None:
            buf = self._read_span(entry.skip_offset, entry.skip_length)
            n_blocks, pos = read_uvarint(buf, 0)
            last_docids: List[int] = []
            block_offsets: List[int] = []
            block_lengths: List[int] = []
            doc_counts: List[int] = []
            doc_starts: List[int] = []
            offset = entry.data_offset
            previous_last = None
            docs_seen = 0
            for _ in range(n_blocks):
                last_delta, pos = read_uvarint(buf, pos)
                n_docs, pos = read_uvarint(buf, pos)
                n_bytes, pos = read_uvarint(buf, pos)
                last = (
                    last_delta
                    if previous_last is None
                    else previous_last + last_delta
                )
                last_docids.append(last)
                block_offsets.append(offset)
                block_lengths.append(n_bytes)
                doc_counts.append(n_docs)
                doc_starts.append(docs_seen)
                previous_last = last
                offset += n_bytes
                docs_seen += n_docs
            entry._skip = (
                last_docids,
                block_offsets,
                block_lengths,
                doc_counts,
                doc_starts,
            )
        return entry._skip

    def _block_bytes(self, entry: _TermEntry, block_index: int) -> bytes:
        _, offsets, lengths, _, _ = self._skip_table(entry)
        raw = self._read_span(offsets[block_index], lengths[block_index])
        self.io.block_fetches += 1
        self.io.bytes_read += len(raw)
        return raw

    def _block_docs(
        self, field: str, entry: _TermEntry, block_index: int
    ) -> array:
        key = (field, entry.term, block_index, "docs")
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        last_docids = self._skip_table(entry)[0]
        prev_last = -1 if block_index == 0 else last_docids[block_index - 1]
        docs = decode_block_docs(self._block_bytes(entry, block_index), prev_last)
        self.io.blocks_decoded += 1
        self.cache.put(key, docs, docs.itemsize * len(docs) + 64)
        return docs

    def _block_positions(
        self, field: str, entry: _TermEntry, block_index: int
    ) -> Tuple[Tuple[int, ...], ...]:
        key = (field, entry.term, block_index, "positions")
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        positions = decode_block_positions(self._block_bytes(entry, block_index))
        self.io.blocks_decoded += 1
        nbytes = 64 + sum(40 + 8 * len(p) for p in positions)
        self.cache.put(key, positions, nbytes)
        return positions

    def _materialize_docs(self, field: str, entry: _TermEntry) -> array:
        docs = array("q")
        for block_index in range(entry.n_blocks):
            docs.extend(self._block_docs(field, entry, block_index))
        return docs

    def _materialize_positions(
        self, field: str, entry: _TermEntry
    ) -> Tuple[Tuple[int, ...], ...]:
        out: List[Tuple[int, ...]] = []
        for block_index in range(entry.n_blocks):
            out.extend(self._block_positions(field, entry, block_index))
        return tuple(out)

    def _gallop_into(
        self, field: str, entry: _TermEntry, probes: array
    ) -> array:
        last_docids = self._skip_table(entry)[0]
        n_blocks = entry.n_blocks
        out = array("q")
        append = out.append
        block_lo = 0
        block_docs: Optional[array] = None
        block_index = -1
        inner_lo = 0
        for doc in probes:
            # The first block whose last docid reaches the probe is the
            # only one that can contain it (blocks partition the range).
            candidate = bisect.bisect_left(last_docids, doc, block_lo)
            if candidate >= n_blocks:
                break
            block_lo = candidate
            if candidate != block_index:
                block_docs = self._block_docs(field, entry, candidate)
                block_index = candidate
                inner_lo = 0
            inner_lo = bisect.bisect_left(block_docs, doc, inner_lo)
            if inner_lo < len(block_docs) and block_docs[inner_lo] == doc:
                append(doc)
                inner_lo += 1
        return out

    # ------------------------------------------------------------------
    # docid mapping
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        """``D``: total number of documents in the collection."""
        return len(self._docid_list)

    def docid_of(self, ordinal: int) -> str:
        return self._docid_list[ordinal]

    def ordinal_of(self, docid: str) -> int:
        if self._docid_ordinals is None:
            self._docid_ordinals = {
                docid: ordinal
                for ordinal, docid in enumerate(self._docid_list)
            }
        return self._docid_ordinals[docid]

    def all_docs(self) -> PostingList:
        """A posting list naming every document (for NOT complements)."""
        return PostingList._from_sorted(array("q", range(self.document_count)))

    # ------------------------------------------------------------------
    # charged lookups (bit-identical to the in-memory index)
    # ------------------------------------------------------------------
    def _check_field(self, field: str) -> None:
        if field not in self._dictionaries:
            raise UnknownFieldError(f"unknown text field {field!r}")

    def pages_for(self, postings: int) -> int:
        """Disk pages occupied by a list of ``postings`` entries."""
        if postings <= 0:
            return 0
        return -(-postings // self.page_capacity)  # ceil division

    def lookup(self, field: str, term: str) -> PostingList:
        """The inverted list for one term; charges its page reads."""
        self._check_field(field)
        entry = self._dictionaries[field].get(term)
        if entry is None:
            return PostingList()
        self.pages_read += self.pages_for(entry.df)
        return DiskPostingList(self, field, entry)

    def lookup_prefix(
        self, field: str, prefix: str
    ) -> List[Tuple[str, PostingList]]:
        """All ``(term, list)`` pairs for a prefix; each list charged."""
        self._check_field(field)
        vocabulary = self._vocabularies[field]
        start = bisect.bisect_left(vocabulary, prefix)
        out: List[Tuple[str, PostingList]] = []
        for index in range(start, len(vocabulary)):
            term = vocabulary[index]
            if not term.startswith(prefix):
                break
            entry = self._dictionaries[field][term]
            self.pages_read += self.pages_for(entry.df)
            out.append((term, DiskPostingList(self, field, entry)))
        return out

    # ------------------------------------------------------------------
    # charge-free metadata (the in-memory directory)
    # ------------------------------------------------------------------
    def list_length(self, field: str, term: str) -> int:
        self._check_field(field)
        entry = self._dictionaries[field].get(term)
        return 0 if entry is None else entry.df

    def document_frequency(self, field: str, term: str) -> int:
        """Number of documents whose ``field`` contains ``term``: the
        length of its inverted list, read from the directory."""
        return self.list_length(field, term)

    def prefix_terms(self, field: str, prefix: str) -> List[str]:
        self._check_field(field)
        vocabulary = self._vocabularies[field]
        start = bisect.bisect_left(vocabulary, prefix)
        out: List[str] = []
        for index in range(start, len(vocabulary)):
            term = vocabulary[index]
            if not term.startswith(prefix):
                break
            out.append(term)
        return out

    def vocabulary(self, field: str) -> List[str]:
        self._check_field(field)
        return list(self._vocabularies[field])

    def vocabulary_size(self, field: str) -> int:
        self._check_field(field)
        return len(self._vocabularies[field])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def io_stats(self) -> Dict[str, object]:
        """Physical I/O + cache counters (never a cost-model input)."""
        stats = dict(self.io.as_dict())
        stats["cache"] = self.cache.stats.as_dict()
        return stats

    def stats(self) -> Dict[str, object]:
        """Index-file statistics for reporting (``repro index stats``)."""
        vocab = {
            field: len(self._vocabularies[field]) for field in self.field_names
        }
        total_postings = self.meta["total_postings"]
        return {
            "path": str(self.path),
            "format": self.meta["format"],
            "doc_count": self.document_count,
            "fields": list(self.field_names),
            "vocabulary": vocab,
            "total_postings": total_postings,
            "block_size": self.block_size,
            "file_size": self.meta["file_size"],
            "bytes_per_posting": (
                round(self.meta["file_size"] / total_postings, 3)
                if total_postings
                else 0.0
            ),
            "build": self.meta.get("build", {}),
        }

    def __repr__(self) -> str:
        return (
            f"DiskInvertedIndex({self.path.name!r}, "
            f"{self.document_count} documents, io={self.io_mode})"
        )
