"""Reads of a :class:`~repro.textsys.vector.VectorSpaceEngine` through its
one ranking entry point, ``search``."""


def ranked_docids(engine, terms, top_k=10, threshold=0.0):
    """The docids ``engine.search`` ranks, best first."""
    return [entry.docid for entry in engine.search(terms, top_k, threshold)]


def score_of(engine, docid, terms):
    """``docid``'s cosine for ``terms`` (a negative threshold ranks all)."""
    ranked = engine.search(terms, top_k=None, threshold=-1.0)
    return next(entry.score for entry in ranked if entry.docid == docid)
