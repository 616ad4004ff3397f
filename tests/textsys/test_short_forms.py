"""A store builds each document's short form once; every answer shares it.

Caching the short form (``DocumentStore.short_form``) must be invisible
to everything but wall clock: for random searches against each kind of
store-backed source, the answers, the server counters, the index page
reads and the client's ledger are the same as when every answer builds
its short forms afresh.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.gateway.client import TextClient
from repro.remote.router import build_sharded_transport
from repro.textsys.diskindex import DiskInvertedIndex, build_disk_index
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.source import DEFAULT_TERM_LIMIT
from repro.textsys.vector import VectorQuery
from repro.textsys.vectorserver import VectorTextServer
from tests.textsys.test_engine_equivalence import WORDS, random_query, random_store

SEARCHES = 40


def _built_afresh(store, docid):
    """The construction every answer paid before the store kept short forms."""
    return store.get(docid).short_form(store.short_fields)


def _in_memory(store, path, engine_mode):
    server = BooleanTextServer(store, engine_mode=engine_mode)

    def observe():
        return [server.counters.as_dict(), server.index.pages_read]

    return server, observe, lambda: None


def _on_disk(store, path, engine_mode):
    index = DiskInvertedIndex(build_disk_index(store, store.field_names, path))
    server = BooleanTextServer(store, engine_mode=engine_mode, index=index)

    def observe():
        return [server.counters.as_dict(), index.pages_read]

    return server, observe, index.close


def _two_shards(store, path, engine_mode):
    server = BooleanTextServer(store, engine_mode=engine_mode)
    transport = build_sharded_transport(server, 2, profile="lan", time_scale=0.0)

    def observe():
        return [
            shard.counters.as_dict()
            for backend in transport.backends
            for shard in backend.transports
        ]

    return transport, observe, transport.close


def _vector(store, path, engine_mode):
    server = VectorTextServer(store, "title")
    return server, lambda: [server.counters.as_dict()], lambda: None


def _random_searches(rng, kind):
    if kind == "vector":
        return [
            VectorQuery(
                "title",
                tuple(rng.sample(WORDS, rng.randint(1, 3))),
                top_k=rng.choice([None, 1, 5]),
                threshold=rng.choice([-1.0, 0.0, 0.2]),
            )
            for _ in range(SEARCHES)
        ]
    queries = (random_query(rng) for _ in range(SEARCHES * 2))
    return [q for q in queries if q.term_count() <= DEFAULT_TERM_LIMIT][:SEARCHES]


BUILDERS = {
    "in_memory": _in_memory,
    "on_disk": _on_disk,
    "two_shards": _two_shards,
    "vector": _vector,
}


@pytest.mark.parametrize("engine_mode", ["reference", "optimized"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_shared_short_forms_change_no_answer_count_or_charge(
    kind, engine_mode, tmp_path, monkeypatch
):
    searches = _random_searches(random.Random(11), kind)

    def run(label):
        store = random_store(random.Random(5), 40)
        path = tmp_path / f"{label}.ridx"
        source, observe, close = BUILDERS[kind](store, path, engine_mode)
        client = TextClient(source)
        answers = [client.search(query) for query in searches]
        observed = observe()
        close()
        return store, answers, observed, client.ledger.report()

    with monkeypatch.context() as patch:
        patch.setattr(DocumentStore, "short_form", _built_afresh)
        _, *afresh = run("afresh")
    store, *shared = run("shared")

    assert shared == afresh
    answers = shared[0]
    assert sum(len(answer) for answer in answers) > 0
    for answer in answers:
        assert answer.documents == tuple(
            _built_afresh(store, docid) for docid in answer.docids
        )


def test_a_short_form_is_one_read_only_object_across_answers(tiny_store):
    server = BooleanTextServer(tiny_store)
    first = server.search("TI='belief'")
    second = server.search("TI='belief' or TI='systems'")
    assert first.docids and set(first.docids) < set(second.docids)
    in_second = dict(zip(second.docids, second.documents))
    for docid, document in zip(first.docids, first.documents):
        assert in_second[docid] is document
        assert document is tiny_store.short_form(docid)
    with pytest.raises(TypeError):
        first.documents[0].fields["title"] = "changed"
    assert server.search("TI='belief'").documents[0].fields["title"] != "changed"


def test_racing_first_builds_hand_out_only_correct_short_forms():
    store = random_store(random.Random(5), 40)
    server = BooleanTextServer(store)
    searches = [f"TI='{word}'" for word in WORDS] * 3
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [
                pool.submit(lambda: [server.search(search) for search in searches])
                for _ in range(4)
            ]
            answers = [answer for run in runs for answer in run.result(timeout=30)]
    finally:
        sys.setswitchinterval(previous)
    assert server.counters.searches == len(answers) == 4 * len(searches)
    for answer in answers:
        assert answer.documents == tuple(
            _built_afresh(store, docid) for docid in answer.docids
        )
