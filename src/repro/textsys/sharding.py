"""Corpus partitioning for the sharded text service.

The paper's loose-integration model (Section 2.1) treats the text system
as one opaque ``search``/``retrieve`` endpoint; a production deployment
splits the collection across shards and scatter-gathers.  This module
holds the *data* half of that story: :func:`partition_store` splits one
:class:`~repro.textsys.documents.DocumentStore` into N disjoint shard
stores, and the resulting :class:`ShardedCorpus` knows how to route
docids and how to merge per-shard result sets back into exactly what the
unsharded server would have returned.

Two properties make the merge faithful to the Section 4 cost formulas:

- **docid ordering** — a single server returns docids in indexing
  (insertion) order.  The partitioner records every docid's *global*
  ordinal, and :meth:`ShardedCorpus.merge_results` sorts the union by
  it, so the merged short form is bit-identical to the unsharded one.
- **postings additivity** — every posting lives in exactly one shard's
  inverted index, and the engine's ``postings_processed`` is a sum of
  retrieved list lengths, so summing the per-shard counts reproduces
  the single-server count exactly (for every node type, including
  truncation expansion: a term absent from a shard contributes nothing
  to that shard's vocabulary or its count).

Partitioning is a snapshot: documents added to the *source* store
afterwards are not re-distributed.  Shard stores may be mutated
individually (their versions feed the merged ``data_fingerprint``).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import TextSystemError, UnknownDocumentError
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.result import ResultSet
from repro.textsys.server import DEFAULT_TERM_LIMIT, BooleanTextServer

__all__ = [
    "hash_shard_of",
    "ShardedCorpus",
    "partition_store",
    "build_shard_servers",
    "merge_scored_results",
]

def hash_shard_of(docid: str, shard_count: int) -> int:
    """The stable hash-partition shard for one docid.

    Uses CRC-32 rather than :func:`hash` because Python salts string
    hashing per process — assignments must replay identically across
    runs (and across the client/server boundary).
    """
    return zlib.crc32(docid.encode("utf-8")) % shard_count


@dataclass
class ShardedCorpus:
    """One corpus split into disjoint shard stores, with routing data.

    ``assignments`` maps every docid to its shard; ``global_order``
    remembers each docid's ordinal in the *source* store, which is the
    order a single unsharded server would return matches in.
    """

    source: DocumentStore
    stores: List[DocumentStore]
    assignments: Dict[str, int]
    global_order: Dict[str, int]

    @property
    def shard_count(self) -> int:
        return len(self.stores)

    def shard_of(self, docid: str) -> int:
        """The shard holding ``docid``; unknown docids raise exactly as
        an unsharded store's ``get`` would."""
        try:
            return self.assignments[docid]
        except KeyError:
            raise UnknownDocumentError(f"unknown docid {docid!r}") from None

    def merge_results(self, partials: Sequence[ResultSet]) -> ResultSet:
        """Union per-shard result sets into the single-server result.

        Docids across shards are disjoint; the union is ordered by
        global ordinal (documents indexed into a shard *after*
        partitioning sort behind the snapshot, by shard order) and the
        per-shard ``postings_processed`` counts are summed.

        Each shard returns matches in its own indexing order, which is a
        subsequence of the global order followed by any post-snapshot
        additions — i.e. already sorted by the merge key.  The scatter
        path therefore k-way heap-merges the per-shard streams in
        ``O(N log S)`` instead of materializing and re-sorting the
        union; a shard stream that is *not* key-sorted (a mutated-then-
        rebuilt shard) falls back to the original sort.
        """
        get_order = self.global_order.get
        streams: List[List[tuple]] = []
        presorted = True
        sequence = 0
        for shard, partial in enumerate(partials):
            stream: List[tuple] = []
            for docid, document in zip(partial.docids, partial.documents):
                ordinal = get_order(docid)
                key = (
                    (0, ordinal, 0)
                    if ordinal is not None
                    else (1, shard, sequence)
                )
                sequence += 1
                if stream and key < stream[-1][0]:
                    presorted = False
                stream.append((key, docid, document))
            if stream:
                streams.append(stream)
        if presorted and len(streams) > 1:
            merged: List[tuple] = list(
                heapq.merge(*streams, key=lambda entry: entry[0])
            )
        else:
            merged = [entry for stream in streams for entry in stream]
            if not presorted or len(streams) > 1:
                merged.sort(key=lambda entry: entry[0])
        return ResultSet(
            docids=tuple(docid for _, docid, _ in merged),
            documents=tuple(document for _, _, document in merged),
            postings_processed=sum(
                partial.postings_processed for partial in partials
            ),
        )


def merge_scored_results(
    partials: Sequence[ResultSet], top_k: Optional[int]
) -> ResultSet:
    """Union per-shard *ranked* result sets into the single-server result.

    Boolean merges order by global ordinal; ranked results order by
    ``(-score, docid)`` — the same total order every
    :class:`~repro.textsys.vector.VectorSpaceEngine` applies — and the
    union is re-truncated to the query's global ``top_k``.  Because each
    shard already returned *its* best ``top_k`` (scored with injected
    global statistics), the global top-k is a subset of the union, so
    the merged answer is bit-identical to the unsharded server's.
    Postings counts are local inverted-list lengths and sum exactly.
    """
    entries = []
    for partial in partials:
        if len(partial.scores) != len(partial.docids):
            raise TextSystemError(
                "a scored merge needs one score per docid; got "
                f"{len(partial.scores)} scores for {len(partial.docids)} docids"
            )
        entries.extend(zip(partial.scores, partial.docids, partial.documents))
    entries.sort(key=lambda entry: (-entry[0], entry[1]))
    if top_k is not None:
        entries = entries[:top_k]
    return ResultSet(
        docids=tuple(docid for _, docid, _ in entries),
        documents=tuple(document for _, _, document in entries),
        postings_processed=sum(
            partial.postings_processed for partial in partials
        ),
        scores=tuple(score for score, _, _ in entries),
    )


def partition_store(store: DocumentStore, shards: int) -> ShardedCorpus:
    """Split ``store`` into ``shards`` disjoint stores.

    Each document's shard is :func:`hash_shard_of` of its docid, so
    placement survives corpus growth.  Within every shard, documents keep their
    relative source order, so each shard server's result ordering is a
    subsequence of the global one.
    """
    if shards < 1:
        raise TextSystemError("a sharded corpus needs at least one shard")
    stores = [
        DocumentStore(store.field_names, short_fields=store.short_fields)
        for _ in range(shards)
    ]
    assignments: Dict[str, int] = {}
    global_order: Dict[str, int] = {}
    for ordinal, document in enumerate(store):
        shard = hash_shard_of(document.docid, shards)
        # Re-add as a fresh Document so shard stores never alias the
        # source's mutable field mappings.
        stores[shard].add(Document(document.docid, dict(document.fields)))
        assignments[document.docid] = shard
        global_order[document.docid] = ordinal
    return ShardedCorpus(
        source=store,
        stores=stores,
        assignments=assignments,
        global_order=global_order,
    )


def build_shard_servers(
    corpus: ShardedCorpus,
    term_limit: int = DEFAULT_TERM_LIMIT,
    engine_mode: Optional[str] = None,
    index_factory=None,
) -> List[BooleanTextServer]:
    """One :class:`BooleanTextServer` per shard store, same term limit.

    All shards run the same evaluation engine (``engine_mode``); mixing
    modes would still merge to identical answers — the engines are
    charge-identical — but a uniform fleet keeps wall-clock predictable.

    ``index_factory(shard_id, store)`` optionally supplies each shard's
    inverted index — the hook the disk-backed deployment uses to serve
    every shard from a prebuilt
    :class:`~repro.textsys.diskindex.DiskInvertedIndex` file instead of
    indexing the shard store in RAM (charges stay identical either way;
    DESIGN invariants 10 and 13 compose).
    """
    return [
        BooleanTextServer(
            store,
            term_limit=term_limit,
            engine_mode=engine_mode,
            index=index_factory(shard_id, store) if index_factory else None,
        )
        for shard_id, store in enumerate(corpus.stores)
    ]
