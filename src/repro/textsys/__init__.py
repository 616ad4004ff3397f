"""Boolean text retrieval system substrate (the CMU Mercury stand-in).

Implements the Section 2.1 model: documents with named text fields,
positional inverted indexes, linear-time sorted-list set operations,
field-scoped word/phrase/truncation/proximity terms with ``and``/``or``/
``not`` connectives, short/long result forms, and a per-search term
limit ``M``.
"""

from repro.textsys.analysis import is_phrase, normalize_term, tokenize, tokenize_with_positions
from repro.textsys.diskindex import (
    BlockCache,
    DiskIndexBuilder,
    DiskInvertedIndex,
    DiskPostingList,
    build_disk_index,
)
from repro.textsys.persistence import load_store, save_store
from repro.textsys.vector import (
    ScoredDocument,
    VectorQuery,
    VectorSearchOutcome,
    VectorSpaceEngine,
    VectorStatistics,
)
from repro.textsys.vectorserver import VectorTextServer, build_vector_shard_servers
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.engine import (
    ENGINE_MODE_ENV,
    ENGINE_MODES,
    EvaluationResult,
    evaluate,
    matches_document,
    resolve_engine_mode,
)
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.parser import DEFAULT_FIELD_CODES, parse_search, share_key
from repro.textsys.postings import (
    Posting,
    PostingList,
    difference,
    intersect,
    intersect_linear,
    intersect_many,
    positional_intersect,
    union,
    union_many,
)
from repro.textsys.rewriter import RewriteResult, estimated_result_size, rewrite
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    SearchNode,
    TermQuery,
    TruncatedQuery,
    and_all,
    canonicalize_for_sharing,
    make_term,
    or_all,
)
from repro.textsys.result import ResultSet
from repro.textsys.server import BooleanTextServer
from repro.textsys.source import (
    DEFAULT_BATCH_LIMIT,
    DEFAULT_TERM_LIMIT,
    ServerCounters,
    TextSource,
)
from repro.textsys.sharding import (
    PARTITION_SCHEMES,
    ShardedCorpus,
    build_shard_servers,
    hash_shard_of,
    merge_scored_results,
    partition_store,
)

__all__ = [
    "Document",
    "DocumentStore",
    "InvertedIndex",
    "BlockCache",
    "DiskIndexBuilder",
    "DiskInvertedIndex",
    "DiskPostingList",
    "build_disk_index",
    "Posting",
    "PostingList",
    "intersect",
    "intersect_linear",
    "intersect_many",
    "union",
    "union_many",
    "difference",
    "positional_intersect",
    "ENGINE_MODES",
    "ENGINE_MODE_ENV",
    "resolve_engine_mode",
    "RewriteResult",
    "rewrite",
    "estimated_result_size",
    "SearchNode",
    "TermQuery",
    "PhraseQuery",
    "TruncatedQuery",
    "ProximityQuery",
    "AndQuery",
    "OrQuery",
    "NotQuery",
    "make_term",
    "and_all",
    "or_all",
    "canonicalize_for_sharing",
    "parse_search",
    "share_key",
    "DEFAULT_FIELD_CODES",
    "evaluate",
    "matches_document",
    "EvaluationResult",
    "ResultSet",
    "TextSource",
    "BooleanTextServer",
    "DEFAULT_BATCH_LIMIT",
    "ServerCounters",
    "DEFAULT_TERM_LIMIT",
    "tokenize",
    "tokenize_with_positions",
    "normalize_term",
    "is_phrase",
    "save_store",
    "load_store",
    "VectorSpaceEngine",
    "ScoredDocument",
    "VectorQuery",
    "VectorSearchOutcome",
    "VectorStatistics",
    "VectorTextServer",
    "build_vector_shard_servers",
    "PARTITION_SCHEMES",
    "ShardedCorpus",
    "partition_store",
    "build_shard_servers",
    "merge_scored_results",
    "hash_shard_of",
]
