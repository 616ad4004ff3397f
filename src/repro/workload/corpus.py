"""Synthetic bibliographic corpora with controllable text statistics.

This is the reproduction's stand-in for the CSTR database behind CMU
Mercury.  It generates ``D`` background documents (title / author /
abstract / year / institution) and then *plants* join values and
selection terms with exact, caller-chosen statistics:

- :meth:`SyntheticCorpus.plant_pool` — make a chosen fraction
  (selectivity ``s``) of a value pool appear in a field, each matching
  value in a chosen number of documents (fanout ``f = s *
  conditional_fanout``);
- :meth:`SyntheticCorpus.plant_phrase` — make a phrase or word match an
  exact number of documents (for text selections like ``'belief update'
  in title``).

Because planted values come from reserved single-token pools
(:func:`~repro.workload.vocabulary.reserved_pool`), the planted
statistics are exact — the properties the paper's experiments sweep
(``s_1``, ``N_1/N``, fanouts) can be dialed in directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.textsys.documents import Document, DocumentStore
from repro.workload.vocabulary import BACKGROUND_WORDS, zipf_text

__all__ = [
    "PlantReport",
    "SyntheticCorpus",
    "DEFAULT_FIELDS",
    "expanded_vocabulary",
    "iter_synthetic_documents",
]


def expanded_vocabulary(size: int) -> List[str]:
    """The background vocabulary grown to ``size`` distinct words.

    Stems repeat with numeric suffixes past the base word list, exactly
    as :class:`SyntheticCorpus` expands it — streamed generation and
    stored corpora draw from the same word universe.
    """
    words = list(BACKGROUND_WORDS)
    index = 0
    while len(words) < size:
        stem = BACKGROUND_WORDS[index % len(BACKGROUND_WORDS)]
        words.append(f"{stem}{index // len(BACKGROUND_WORDS)}bg")
        index += 1
    return words[:size]


def iter_synthetic_documents(
    count: int,
    seed: int = 0,
    *,
    fields: Sequence[str] = ("title", "abstract"),
    vocabulary_size: int = 1500,
    title_words: Tuple[int, int] = (4, 9),
    abstract_words: Tuple[int, int] = (12, 28),
) -> Iterator[Document]:
    """Stream ``count`` synthetic documents without materializing any.

    The million-document workloads feed this generator straight into the
    disk index builder: peak memory stays at one document, whatever
    ``count`` is.  Text statistics match :class:`SyntheticCorpus`'s
    background (Zipf-distributed words over the same expanded
    vocabulary); fields other than ``title``/``abstract`` get a short
    Zipf text so custom schemas still index something.
    """
    if count < 0:
        raise WorkloadError("count must be non-negative")
    if not fields:
        raise WorkloadError("at least one field is required")
    rng = random.Random(seed)
    vocabulary = expanded_vocabulary(vocabulary_size)
    for number in range(count):
        doc_fields: Dict[str, str] = {}
        for name in fields:
            if name == "title":
                k = rng.randint(*title_words)
            elif name == "abstract":
                k = rng.randint(*abstract_words)
            else:
                k = rng.randint(2, 6)
            doc_fields[name] = zipf_text(rng, vocabulary, k)
        yield Document(f"doc-{number:08d}", doc_fields)

DEFAULT_FIELDS: Tuple[str, ...] = (
    "title",
    "author",
    "abstract",
    "year",
    "institution",
)

_MONTHS = (
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
)

_INSTITUTIONS = (
    "stanford", "berkeley", "cmu", "mit", "wisconsin", "cornell",
    "princeton", "washington", "maryland", "toronto",
)


@dataclass(frozen=True)
class PlantReport:
    """What a :meth:`plant_pool` call actually placed in the corpus."""

    field: str
    pool_size: int
    matched_values: Tuple[str, ...]
    documents_per_value: Dict[str, Tuple[int, ...]] = field(hash=False, default_factory=dict)


class SyntheticCorpus:
    """A mutable synthetic document collection; freeze with :meth:`build_store`."""

    def __init__(
        self,
        document_count: int,
        seed: int = 0,
        fields: Sequence[str] = DEFAULT_FIELDS,
        vocabulary_size: int = 1500,
    ) -> None:
        if document_count < 1:
            raise WorkloadError("document_count must be positive")
        self.document_count = document_count
        self.fields = tuple(fields)
        self.rng = random.Random(seed)
        self._vocabulary = self._expand_vocabulary(vocabulary_size)
        # field -> per-document list of text chunks (joined at build time)
        self._chunks: Dict[str, List[List[str]]] = {
            name: [[] for _ in range(document_count)] for name in self.fields
        }
        self._generate_background()

    # ------------------------------------------------------------------
    # background text
    # ------------------------------------------------------------------
    def _expand_vocabulary(self, size: int) -> List[str]:
        return expanded_vocabulary(size)

    def _generate_background(self) -> None:
        rng = self.rng
        for doc in range(self.document_count):
            if "title" in self._chunks:
                self._chunks["title"][doc].append(
                    zipf_text(rng, self._vocabulary, rng.randint(4, 9))
                )
            if "abstract" in self._chunks:
                self._chunks["abstract"][doc].append(
                    zipf_text(rng, self._vocabulary, rng.randint(15, 40))
                )
            if "year" in self._chunks:
                month = _MONTHS[rng.randrange(12)]
                year = rng.randint(1988, 1995)
                self._chunks["year"][doc].append(f"{month} {year}")
            if "institution" in self._chunks:
                self._chunks["institution"][doc].append(
                    _INSTITUTIONS[rng.randrange(len(_INSTITUTIONS))]
                )
            # The author field stays empty in the background: authors are
            # reserved-pool values planted explicitly, so author-side
            # statistics are exact.

    # ------------------------------------------------------------------
    # planting
    # ------------------------------------------------------------------
    def _check_field(self, name: str) -> None:
        if name not in self._chunks:
            raise WorkloadError(f"unknown corpus field {name!r}")

    def plant_value(self, value: str, field_name: str, documents: Iterable[int]) -> None:
        """Append ``value`` to ``field_name`` of the given documents."""
        self._check_field(field_name)
        for doc in documents:
            if not 0 <= doc < self.document_count:
                raise WorkloadError(f"document index {doc} out of range")
            self._chunks[field_name][doc].append(value)

    def plant_pool(
        self,
        values: Sequence[str],
        field_name: str,
        selectivity: float,
        conditional_fanout: float,
        within: Optional[Sequence[int]] = None,
        matched_values: Optional[Sequence[str]] = None,
    ) -> PlantReport:
        """Plant a value pool with exact selectivity and fanout.

        ``round(selectivity * len(values))`` values (or exactly
        ``matched_values`` when given) each get planted into
        ``round(conditional_fanout)`` documents — drawn from ``within``
        when given (to force correlation with an earlier planting, e.g.
        putting student authors inside the 'belief update' documents),
        otherwise from the whole corpus.
        """
        self._check_field(field_name)
        if not 0.0 <= selectivity <= 1.0:
            raise WorkloadError("selectivity must be in [0, 1]")
        if conditional_fanout < 0:
            raise WorkloadError("conditional_fanout must be non-negative")

        if matched_values is not None:
            matched = list(matched_values)
            unknown = set(matched) - set(values)
            if unknown:
                raise WorkloadError(f"matched values not in pool: {sorted(unknown)}")
        else:
            match_count = int(round(selectivity * len(values)))
            matched = self.rng.sample(list(values), match_count)

        universe = list(within) if within is not None else list(range(self.document_count))
        per_value = max(0, int(round(conditional_fanout)))
        if per_value > len(universe):
            raise WorkloadError(
                f"conditional fanout {per_value} exceeds the {len(universe)} "
                "candidate documents"
            )

        documents_per_value: Dict[str, Tuple[int, ...]] = {}
        for value in matched:
            chosen = tuple(sorted(self.rng.sample(universe, per_value)))
            documents_per_value[value] = chosen
            self.plant_value(value, field_name, chosen)
        return PlantReport(
            field=field_name,
            pool_size=len(values),
            matched_values=tuple(matched),
            documents_per_value=documents_per_value,
        )

    def plant_phrase(
        self,
        phrase: str,
        field_name: str,
        document_count: int,
        within: Optional[Sequence[int]] = None,
    ) -> Tuple[int, ...]:
        """Plant a phrase/word into exactly ``document_count`` documents.

        Returns the chosen document indexes (useful as a ``within``
        universe for correlated plantings).
        """
        self._check_field(field_name)
        universe = list(within) if within is not None else list(range(self.document_count))
        if document_count > len(universe):
            raise WorkloadError(
                f"cannot plant into {document_count} of {len(universe)} documents"
            )
        chosen = tuple(sorted(self.rng.sample(universe, document_count)))
        self.plant_value(phrase, field_name, chosen)
        return chosen

    def pad_authors(self, per_document: int = 2, pool_size: int = 400) -> None:
        """Fill the author field with background authors.

        Called after all plantings so planted author statistics stay
        exact; background authors come from their own reserved pool.
        """
        from repro.workload.vocabulary import reserved_pool

        pool = reserved_pool("pad", pool_size, self.rng)
        for doc in range(self.document_count):
            count = self.rng.randint(1, per_document)
            for _ in range(count):
                self._chunks["author"][doc].append(
                    pool[self.rng.randrange(len(pool))]
                )

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    def build_store(
        self, short_fields: Optional[Sequence[str]] = None
    ) -> DocumentStore:
        """Freeze the corpus into a :class:`DocumentStore`.

        ``short_fields`` defaults to everything except the abstract —
        bibliographic systems return the catalogue fields in the short
        form and the full record (with abstract) on retrieval.
        """
        if short_fields is None:
            short_fields = tuple(f for f in self.fields if f != "abstract")
        store = DocumentStore(self.fields, short_fields=short_fields)
        for doc in range(self.document_count):
            fields = {
                name: " ".join(self._chunks[name][doc])
                for name in self.fields
                if self._chunks[name][doc]
            }
            store.add(Document(f"doc{doc:05d}", fields))
        return store
