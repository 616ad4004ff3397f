"""Optimized-kernel equivalence properties (DESIGN.md "Engine kernels").

For random corpora and random Boolean query trees, the optimized engine
must be *observationally identical* to the reference engine — same
docids, same ``postings_processed``, same index page reads, same server
counters, same priced ledger totals — at any shard count.  Only wall
clock may differ.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchSyntaxError
from repro.gateway.client import TextClient
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.engine import evaluate, matches_document, resolve_engine_mode
from repro.textsys.inverted_index import InvertedIndex
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    PhraseQuery,
    ProximityQuery,
    SearchNode,
    TermQuery,
    TruncatedQuery,
)
from repro.textsys.server import BooleanTextServer
from repro.textsys.sharding import build_shard_servers, partition_store

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def random_store(rng: random.Random, doc_count: int) -> DocumentStore:
    store = DocumentStore(["title", "body"], short_fields=["title"])
    for i in range(doc_count):
        title = " ".join(rng.choices(WORDS, k=rng.randint(0, 6)))
        body = " ".join(rng.choices(WORDS, k=rng.randint(0, 10)))
        store.add(Document(f"d{i}", {"title": title, "body": body}))
    return store


def random_query(rng: random.Random, depth: int = 3) -> SearchNode:
    if depth == 0 or rng.random() < 0.35:
        kind = rng.randrange(4)
        field = rng.choice(["title", "body"])
        if kind == 0:
            return TermQuery(field, rng.choice(WORDS))
        if kind == 1:
            return PhraseQuery(field, (rng.choice(WORDS), rng.choice(WORDS)))
        if kind == 2:
            return TruncatedQuery(field, rng.choice(WORDS)[: rng.randint(1, 3)])
        return ProximityQuery(
            field, rng.choice(WORDS), rng.choice(WORDS), rng.randint(1, 4)
        )
    connective = rng.randrange(3)
    if connective == 2:
        return NotQuery(random_query(rng, depth - 1))
    # Wide fan-ins with deliberate duplicates: the shapes the rewriter's
    # flatten/dedupe and the evaluator's memoization must keep
    # charge-identical.
    operands = [random_query(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    if len(operands) > 1 and rng.random() < 0.4:
        operands.append(rng.choice(operands))
    rng.shuffle(operands)
    node_type = AndQuery if connective == 0 else OrQuery
    return node_type(tuple(operands))


def run_mode(store: DocumentStore, query: SearchNode, mode: str):
    """Evaluate on a fresh index; returns (docids, processed, pages read)."""
    index = InvertedIndex(store)
    outcome = evaluate(index, query, mode=mode)
    docids = [index.docid_of(doc) for doc in outcome.postings.doc_array]
    return docids, outcome.postings_processed, index.pages_read


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_optimized_equals_reference_equals_brute_force(seed):
    """Docids, postings charges, and page reads agree across engines, and
    both engines agree with the per-document reference matcher."""
    rng = random.Random(seed)
    store = random_store(rng, rng.randint(1, 18))
    for _ in range(4):
        query = random_query(rng)
        ref_docids, ref_processed, ref_pages = run_mode(store, query, "reference")
        opt_docids, opt_processed, opt_pages = run_mode(store, query, "optimized")
        expression = query.to_expression()
        assert opt_docids == ref_docids, expression
        assert opt_processed == ref_processed, expression
        assert opt_pages == ref_pages, expression
        brute = [
            document.docid
            for document in store
            if matches_document(document, query)
        ]
        assert opt_docids == brute, expression


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_server_accounting_identical_across_modes_and_shards(seed):
    """Server counters, result sets, and priced ledger totals are
    bit-identical between engine modes and across shard counts."""
    rng = random.Random(seed)
    store = random_store(rng, rng.randint(2, 18))
    queries = [random_query(rng, depth=2) for _ in range(3)]

    observed = {}
    for mode in ("reference", "optimized"):
        server = BooleanTextServer(store, engine_mode=mode)
        client = TextClient(server)
        answers = [client.search(query) for query in queries]
        observed[mode] = (
            [result.docids for result in answers],
            server.counters.as_dict(),
            client.ledger.total,
        )
    assert observed["optimized"] == observed["reference"]

    expected_docids, expected_counters, _ = observed["optimized"]
    for shards in (2, 3):
        corpus = partition_store(store, shards)
        servers = build_shard_servers(corpus, engine_mode="optimized")
        merged_docids = []
        for query in queries:
            partials = [server.search(query) for server in servers]
            merged_docids.append(corpus.merge_results(partials).docids)
        assert merged_docids == expected_docids
        summed = {
            key: sum(server.counters.as_dict()[key] for server in servers)
            for key in expected_counters
        }
        # Postings and transmitted documents partition across shards; the
        # scatter itself multiplies only the per-shard invocation count.
        assert summed["postings_processed"] == expected_counters["postings_processed"]
        assert summed["short_documents"] == expected_counters["short_documents"]
        assert summed["long_documents"] == expected_counters["long_documents"]
        assert summed["searches"] == shards * expected_counters["searches"]


class TestZeroOperandConnectives:
    """Zero-operand AND/OR: typed error at construction, loud at runtime."""

    def test_construction_raises_typed_error(self):
        with pytest.raises(SearchSyntaxError):
            AndQuery(())
        with pytest.raises(SearchSyntaxError):
            OrQuery(())

    @pytest.mark.parametrize("node_type", [AndQuery, OrQuery])
    @pytest.mark.parametrize("mode", ["reference", "optimized"])
    def test_engine_rejects_smuggled_empty_connective(self, node_type, mode):
        # Bypass the dataclass constructor the way a __dict__-restoring
        # deserializer could; the engine must raise, never return the
        # old silent None/empty result.
        bad = node_type.__new__(node_type)
        object.__setattr__(bad, "operands", ())
        store = DocumentStore(["title"])
        store.add(Document("d0", {"title": "alpha"}))
        index = InvertedIndex(store)
        with pytest.raises(SearchSyntaxError):
            evaluate(index, bad, mode=mode)

    def test_matches_document_rejects_empty_connective(self):
        bad = AndQuery.__new__(AndQuery)
        object.__setattr__(bad, "operands", ())
        with pytest.raises(SearchSyntaxError):
            matches_document(Document("d0", {"title": "alpha"}), bad)


class TestEngineModeResolution:
    def test_explicit_mode_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "reference")
        assert resolve_engine_mode("optimized") == "optimized"

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "reference")
        assert resolve_engine_mode(None) == "reference"
        monkeypatch.delenv("REPRO_ENGINE_MODE")
        assert resolve_engine_mode(None) == "optimized"

    def test_unknown_mode_rejected(self):
        from repro.errors import TextSystemError

        with pytest.raises(TextSystemError):
            resolve_engine_mode("turbo")
        with pytest.raises(TextSystemError):
            BooleanTextServer(DocumentStore(["title"]), engine_mode="turbo")


def test_restricted_or_is_never_memoized():
    """One OR subtree is evaluated twice in one query: first restricted
    by a selective conjunct, then in full.  The full evaluation must not
    reuse the restricted result, and both evaluations pay their lists."""
    store = DocumentStore(["title", "body"], short_fields=["title"])
    for i in range(60):
        words = [
            word
            for word, step in (("alpha", 2), ("beta", 3), ("gamma", 5))
            if i % step == 0
        ]
        if i in (6, 35):
            words.append("delta")
        if i % 4 == 0:
            words.append("zeta")
        store.add(Document(f"d{i}", {"title": "", "body": " ".join(words)}))
    wide = OrQuery(
        tuple(TermQuery("body", word) for word in ("alpha", "beta", "gamma"))
    )
    query = OrQuery(
        (
            AndQuery((TermQuery("body", "delta"), wide)),
            AndQuery((wide, NotQuery(TermQuery("body", "zeta")))),
        )
    )
    ref_docids, ref_processed, ref_pages = run_mode(store, query, "reference")
    opt_docids, opt_processed, opt_pages = run_mode(store, query, "optimized")
    full_union = {
        f"d{i}"
        for i in range(60)
        if (i % 2 == 0 or i % 3 == 0 or i % 5 == 0) and i % 4
    }
    assert full_union <= set(opt_docids)
    assert opt_docids == ref_docids
    assert opt_processed == ref_processed
    assert opt_pages == ref_pages


# ----------------------------------------------------------------------
# a phrase or proximity conjunct merged only within the running result
# ----------------------------------------------------------------------
def restriction_store() -> DocumentStore:
    """Forty bodies over four common words in four orders, so every
    phrase word has df 40; ``zeta`` (4 docs) and ``eta`` (2 docs) are
    selective, ``epsilon`` (10 docs) never meets ``zeta``."""
    orders = [
        "alpha beta gamma delta",
        "beta alpha delta gamma",
        "gamma delta alpha beta",
        "delta gamma beta alpha",
    ]
    store = DocumentStore(["title", "body"], short_fields=["title"])
    for i in range(40):
        words = ["zeta"] if i in (4, 9, 14, 19) else []
        words += ["eta"] if i in (9, 14) else []
        words.append(orders[i % 4])
        words += ["epsilon"] if 20 <= i < 30 else []
        store.add(Document(f"d{i}", {"title": "", "body": " ".join(words)}))
    return store


def _phrase(text: str) -> PhraseQuery:
    return PhraseQuery("body", tuple(text.split()))


ZETA, ETA = TermQuery("body", "zeta"), TermQuery("body", "eta")
RESTRICTED_QUERIES = {
    "two_word_phrase": AndQuery((ZETA, _phrase("alpha beta"))),
    "three_word_phrase": AndQuery((_phrase("alpha beta gamma"), ZETA)),
    "near": AndQuery((ZETA, ProximityQuery("body", "alpha", "delta", 1))),
    "chain_empties_after_first_word": AndQuery((ZETA, _phrase("gamma alpha beta"))),
    "no_doc_survives_the_cut": AndQuery((ZETA, _phrase("epsilon alpha"))),
    "restricted_full_then_memoized": OrQuery(
        (
            AndQuery((ZETA, _phrase("alpha beta"))),
            _phrase("alpha beta"),
            AndQuery((ETA, _phrase("alpha beta"))),
        )
    ),
}


@pytest.fixture
def restricted_merges(monkeypatch):
    """Counts the positional cuts the restriction rule makes."""
    import repro.textsys.engine as engine

    calls = []
    select_docs = engine.select_docs

    def spy(postings, keep, positions=False):
        calls.append(positions)
        return select_docs(postings, keep, positions)

    monkeypatch.setattr(engine, "select_docs", spy)
    return calls


@pytest.mark.parametrize("name", sorted(RESTRICTED_QUERIES))
def test_restricted_positional_conjunct_is_reference_identical(
    name, restricted_merges
):
    store, query = restriction_store(), RESTRICTED_QUERIES[name]
    reference = run_mode(store, query, "reference")
    assert not restricted_merges
    assert run_mode(store, query, "optimized") == reference
    assert restricted_merges.count(True) >= 2, "the rule did not fire"
    assert reference[0] == [d.docid for d in store if matches_document(d, query)]

    counters = {}
    for mode in ("reference", "optimized"):
        server = BooleanTextServer(store, engine_mode=mode)
        counters[mode] = (server.search(query).docids, server.counters.as_dict())
    assert counters["optimized"] == counters["reference"]
