"""Documents and document stores.

Following Section 2.1 of the paper: a text retrieval system manages a
collection of documents, each uniquely identified by a *docid*, and each
consisting of a set of named text fields (author, title, abstract, ...).

The result of a search carries documents in *short form* (docid plus a
configured subset of fields); the *long form* (all fields) is retrieved
separately by docid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import SchemaError, UnknownDocumentError, UnknownFieldError

__all__ = ["Document", "DocumentStore"]

#: Process-wide store identity counter (see :attr:`DocumentStore.uid`).
_store_uids = itertools.count(1)


@dataclass(frozen=True)
class Document:
    """An immutable document: a docid plus named text fields."""

    docid: str
    fields: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.docid:
            raise SchemaError("docid must be non-empty")

    def field(self, name: str) -> str:
        """Text of one field; missing fields read as the empty string."""
        return self.fields.get(name, "")

    def short_form(self, short_fields: Iterable[str]) -> "Document":
        """A copy carrying only the given fields (the short form).

        Its ``fields`` is read-only: a store hands one short form to
        every answer that carries the document (see
        :meth:`DocumentStore.short_form`).
        """
        kept = {name: self.fields[name] for name in short_fields if name in self.fields}
        return Document(self.docid, MappingProxyType(kept))


class DocumentStore:
    """The collection of documents behind a text retrieval system.

    ``field_names`` declares the searchable fields; ``short_fields`` is
    the subset returned in short-form result sets.

    ``version`` is a monotone counter stamped on every mutation; caches
    keyed on search results compare it to decide whether their entries
    may still be served (see :mod:`repro.gateway.cache`).
    """

    def __init__(
        self,
        field_names: Iterable[str],
        short_fields: Optional[Iterable[str]] = None,
    ) -> None:
        self.field_names: Tuple[str, ...] = tuple(field_names)
        if not self.field_names:
            raise SchemaError("a document store needs at least one field")
        if len(set(self.field_names)) != len(self.field_names):
            raise SchemaError("duplicate field names")
        if short_fields is None:
            self.short_fields: Tuple[str, ...] = ()
        else:
            self.short_fields = tuple(short_fields)
            unknown = set(self.short_fields) - set(self.field_names)
            if unknown:
                raise UnknownFieldError(
                    f"short fields {sorted(unknown)} are not collection fields"
                )
        self._documents: Dict[str, Document] = {}
        self._short_forms: Dict[str, Document] = {}
        #: Monotone mutation counter (the cache-invalidation stamp).
        self.version = 0
        #: Process-unique store identity.  Two *different* stores can sit
        #: at the same numeric ``version``, so caches that only compare
        #: versions would serve one store's entries for the other; the
        #: ``(uid, version)`` pair — see ``data_fingerprint`` on the
        #: servers — cannot collide across stores.
        self.uid = next(_store_uids)

    def add(self, document: Document) -> None:
        """Add a document; docids must be unique."""
        unknown = set(document.fields) - set(self.field_names)
        if unknown:
            raise UnknownFieldError(
                f"document {document.docid!r} has unknown fields {sorted(unknown)}"
            )
        if document.docid in self._documents:
            raise SchemaError(f"duplicate docid {document.docid!r}")
        self._documents[document.docid] = document
        self.version += 1

    def add_record(self, docid: str, **fields: str) -> Document:
        """Convenience: build and add a document from keyword fields."""
        document = Document(docid, dict(fields))
        self.add(document)
        return document

    def get(self, docid: str) -> Document:
        """Fetch the long form of a document by docid."""
        try:
            return self._documents[docid]
        except KeyError:
            raise UnknownDocumentError(f"unknown docid {docid!r}") from None

    def short_form(self, docid: str) -> Document:
        """A document's short form, built on first use and reused after.

        The store only ever adds documents, docids are unique and a
        :class:`Document` is frozen, so a stored short form never goes
        stale.  Two threads racing on a first build store equal values;
        either may win.
        """
        short = self._short_forms.get(docid)
        if short is None:
            short = self.get(docid).short_form(self.short_fields)
            self._short_forms[docid] = short
        return short

    def __contains__(self, docid: str) -> bool:
        return docid in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents.values())

    def has_field(self, name: str) -> bool:
        return name in self.field_names
