"""Per-field inverted indexes with positional postings.

One :class:`InvertedIndex` covers a whole document collection: for every
field it maps each normalized word to a :class:`PostingList`.  Documents
are identified internally by integer ordinals (assigned in indexing
order) so posting lists stay cheaply sortable; the index keeps the
ordinal ↔ docid mapping.

The index also exposes the access-pattern accounting the cost model needs:
every lookup reports the length of the list retrieved (the number of
postings "read from disk" in the paper's model).
"""

from __future__ import annotations

import bisect
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.errors import UnknownFieldError
from repro.textsys.analysis import tokenize_with_positions
from repro.textsys.documents import DocumentStore
from repro.textsys.postings import PostingList

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Positional inverted index over every field of a document store.

    Storage follows the paper's [DH91] model: "the inverted lists reside
    on disk, and a main memory directory maps a word to the location of
    its list".  The index therefore meters *page reads*: every list
    retrieval reads ``ceil(len(list) / page_capacity)`` pages (an empty
    list costs nothing — the in-memory directory already knows).  The
    default capacity models 4 KiB pages of 16-byte postings.
    """

    #: Postings per disk page (4 KiB page / 16-byte posting).
    DEFAULT_PAGE_CAPACITY = 256

    def __init__(
        self, store: DocumentStore, page_capacity: int = DEFAULT_PAGE_CAPACITY
    ) -> None:
        if page_capacity < 1:
            raise ValueError("page_capacity must be positive")
        self.store = store
        self.page_capacity = page_capacity
        #: Cumulative disk pages read by list retrievals.
        self.pages_read = 0
        #: The store version this index reflects (cache-invalidation stamp).
        self.version = 0
        self._ordinal_docids: List[str] = []
        # field -> term -> sorted list of Posting
        self._lists: Dict[str, Dict[str, PostingList]] = {
            field: {} for field in store.field_names
        }
        # field -> sorted vocabulary (for truncation / prefix expansion)
        self._vocabulary: Dict[str, List[str]] = {
            field: [] for field in store.field_names
        }
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        accumulator: Dict[str, Dict[str, Dict[int, List[int]]]] = {
            field: defaultdict(dict) for field in self.store.field_names
        }
        for document in self.store:
            ordinal = len(self._ordinal_docids)
            self._ordinal_docids.append(document.docid)
            for field in self.store.field_names:
                text = document.field(field)
                if not text:
                    continue
                for token, position in tokenize_with_positions(text):
                    positions = accumulator[field][token].setdefault(ordinal, [])
                    positions.append(position)
        for field, terms in accumulator.items():
            for term, docs in terms.items():
                ordered = sorted(docs.items())
                doc_array = array("q", (ordinal for ordinal, _ in ordered))
                positions = tuple(
                    tuple(sorted(entry)) for _, entry in ordered
                )
                self._lists[field][term] = PostingList._from_sorted(
                    doc_array, positions
                )
            self._vocabulary[field] = sorted(self._lists[field])
        self.version = self.store.version

    def rebuild(self) -> None:
        """Re-index the store after mutations (stamps the new version).

        The index is built eagerly at construction; a store that gains
        documents afterwards must be re-indexed for searches to see them.
        ``version`` follows the store's mutation counter so downstream
        caches (see :mod:`repro.gateway.cache`) drop stale entries.
        """
        self._ordinal_docids.clear()
        self._lists = {field: {} for field in self.store.field_names}
        self._vocabulary = {field: [] for field in self.store.field_names}
        self._build()

    # ------------------------------------------------------------------
    # docid mapping
    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        """``D``: total number of documents in the collection."""
        return len(self._ordinal_docids)

    def docid_of(self, ordinal: int) -> str:
        """The external docid for an internal ordinal."""
        return self._ordinal_docids[ordinal]

    def all_docs(self) -> PostingList:
        """A posting list naming every document (for NOT complements)."""
        return PostingList._from_sorted(array("q", range(self.document_count)))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _check_field(self, field: str) -> None:
        if field not in self._lists:
            raise UnknownFieldError(f"unknown text field {field!r}")

    def pages_for(self, postings: int) -> int:
        """Disk pages occupied by a list of ``postings`` entries."""
        if postings <= 0:
            return 0
        return -(-postings // self.page_capacity)  # ceil division

    def lookup(self, field: str, term: str) -> PostingList:
        """The inverted list for one normalized term in one field.

        Charges the page reads for fetching the list from disk.
        """
        self._check_field(field)
        postings = self._lists[field].get(term, PostingList())
        self.pages_read += self.pages_for(len(postings))
        return postings

    def lookup_prefix(self, field: str, prefix: str) -> List[Tuple[str, PostingList]]:
        """All ``(term, list)`` pairs whose term starts with ``prefix``.

        Implements truncated search terms (``filter?``) by expansion over
        the field vocabulary; each expanded list is fetched (and its
        pages charged) separately.
        """
        self._check_field(field)
        vocabulary = self._vocabulary[field]
        start = bisect.bisect_left(vocabulary, prefix)
        out: List[Tuple[str, PostingList]] = []
        for index in range(start, len(vocabulary)):
            term = vocabulary[index]
            if not term.startswith(prefix):
                break
            postings = self._lists[field][term]
            self.pages_read += self.pages_for(len(postings))
            out.append((term, postings))
        return out

    # ------------------------------------------------------------------
    # charge-free metadata (the in-memory directory)
    # ------------------------------------------------------------------
    def list_length(self, field: str, term: str) -> int:
        """The length of one inverted list, from the directory alone.

        Unlike :meth:`lookup`, this charges *no* page reads: per the
        [DH91] storage model the main-memory directory already knows
        every list's length without touching disk.  The query rewriter
        uses it to order conjuncts by document frequency before any list
        is actually retrieved.
        """
        self._check_field(field)
        postings = self._lists[field].get(term)
        return 0 if postings is None else len(postings)

    def document_frequency(self, field: str, term: str) -> int:
        """Number of documents whose ``field`` contains ``term``: the
        length of its inverted list, read from the directory."""
        return self.list_length(field, term)

    def prefix_terms(self, field: str, prefix: str) -> List[str]:
        """The vocabulary terms a truncated search expands to (no charge)."""
        self._check_field(field)
        vocabulary = self._vocabulary[field]
        start = bisect.bisect_left(vocabulary, prefix)
        out: List[str] = []
        for index in range(start, len(vocabulary)):
            term = vocabulary[index]
            if not term.startswith(prefix):
                break
            out.append(term)
        return out

    def vocabulary(self, field: str) -> List[str]:
        """The sorted vocabulary of one field."""
        self._check_field(field)
        return list(self._vocabulary[field])
