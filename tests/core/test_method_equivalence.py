"""Property tests for DESIGN.md invariants 1–3.

1. **Method equivalence** — on randomly generated corpora and relations,
   every join method returns the same result set for the same query.
2. **Probe soundness** — a probe reducer never prunes a tuple that would
   have joined.
3. **Semi-join batching** — the OR-batched docid set equals the union of
   the per-tuple searches, under arbitrary (even tiny) term limits.
"""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.joinmethods import (
    JoinContext,
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    SingleColumnSemiJoinRtp,
    TupleSubstitution,
)
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.server import BooleanTextServer

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def random_world(seed: int):
    """A random document collection + a random two-column relation."""
    rng = random.Random(seed)
    store = DocumentStore(
        ["title", "author"], short_fields=["title", "author"]
    )
    for i in range(rng.randint(1, 12)):
        title = " ".join(rng.choices(WORDS, k=rng.randint(0, 4)))
        author = " ".join(rng.choices(WORDS, k=rng.randint(0, 3)))
        store.add(Document(f"d{i}", {"title": title, "author": author}))
    server = BooleanTextServer(store, term_limit=rng.choice([3, 5, 70]))

    catalog = Catalog()
    table = catalog.create_table(
        "r",
        Schema.of(("a", DataType.VARCHAR), ("b", DataType.VARCHAR)),
    )
    for _ in range(rng.randint(0, 10)):
        a = rng.choice(WORDS + [None])
        b = rng.choice(WORDS + [None])
        table.insert([a, b])

    selections = ()
    if rng.random() < 0.5:
        selections = (TextSelection(rng.choice(WORDS), "title"),)
    query = TextJoinQuery(
        relation="r",
        join_predicates=(
            TextJoinPredicate("r.a", "author"),
            TextJoinPredicate("r.b", "title"),
        ),
        text_selections=selections,
    )
    return catalog, server, query


def fresh_context(catalog, server):
    return JoinContext(catalog, TextClient(server))


ALL_PAIR_METHODS = [
    TupleSubstitution(),
    TupleSubstitution(distinct_only=False),
    SemiJoinRtp(),
    SingleColumnSemiJoinRtp("r.a"),
    SingleColumnSemiJoinRtp("r.b"),
    ProbeTupleSubstitution(("r.a",)),
    ProbeTupleSubstitution(("r.b",), probe_first=False),
    ProbeRtp(("r.a",)),
    ProbeRtp(("r.b",)),
]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_all_pair_methods_agree(seed):
    """Invariant 1: every PAIRS-shaped method returns the same results."""
    catalog, server, query = random_world(seed)
    reference = None
    for method in ALL_PAIR_METHODS:
        context = fresh_context(catalog, server)
        keys = method.execute(query, context).result_keys()
        if reference is None:
            reference = keys
        else:
            assert keys == reference, (method.name, seed)
    if query.text_selections:
        context = fresh_context(catalog, server)
        keys = RelationalTextProcessing().execute(query, context).result_keys()
        assert keys == reference


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_docid_shapes_agree(seed):
    """SJ's batched docids equal the docids of TS's join results."""
    catalog, server, query = random_world(seed)
    docid_query = replace(query, shape=ResultShape.DOCIDS, long_form=False)
    sj_keys = (
        SemiJoin()
        .execute(docid_query, fresh_context(catalog, server))
        .result_keys()
    )
    ts_keys = (
        TupleSubstitution()
        .execute(docid_query, fresh_context(catalog, server))
        .result_keys()
    )
    assert sj_keys == ts_keys, seed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_tuple_shapes_agree_and_probe_is_sound(seed):
    """Invariant 2: the exact probe semi-join equals TS's tuple set, and
    any partial probe reducer yields a superset (never prunes a joiner)."""
    catalog, server, query = random_world(seed)
    tuple_query = replace(query, shape=ResultShape.TUPLES, long_form=False)
    exact = (
        ProbeSemiJoin()
        .execute(tuple_query, fresh_context(catalog, server))
        .result_keys()
    )
    ts = (
        TupleSubstitution()
        .execute(tuple_query, fresh_context(catalog, server))
        .result_keys()
    )
    assert exact == ts, seed
    for columns in (("r.a",), ("r.b",)):
        reduced = (
            ProbeSemiJoin(columns)
            .execute(tuple_query, fresh_context(catalog, server))
            .result_keys()
        )
        assert ts <= reduced, (columns, seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000), term_limit=st.integers(3, 10))
def test_semijoin_batching_invariant_under_any_term_limit(seed, term_limit):
    """Invariant 3: batching across searches never changes the docid set."""
    catalog, server, query = random_world(seed)
    tight_server = BooleanTextServer(server.store, term_limit=term_limit)
    docid_query = replace(query, shape=ResultShape.DOCIDS, long_form=False)
    batched = (
        SemiJoin()
        .execute(docid_query, fresh_context(catalog, tight_server))
        .result_keys()
    )
    loose_server = BooleanTextServer(server.store, term_limit=70)
    reference = (
        SemiJoin()
        .execute(docid_query, fresh_context(catalog, loose_server))
        .result_keys()
    )
    assert batched == reference, seed
