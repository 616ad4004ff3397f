"""Properties of the cross-query share canonicalization.

The sharing layer merges two searches only when their canonical forms
coincide.  Soundness demands two things, hypothesis-tested here:

- **Equal keys are truly interchangeable**: any commutation/re-nesting
  of the same connective keeps the key *and* the server's answer —
  docids, result size, and (invariant 11) ``postings_processed``.
- **Unequal keys never merge**: the in-flight search table groups
  searches strictly by key; duplicates inside a conjunction are
  preserved (``AND(x, x, y)`` is NOT collapsed to ``AND(x, y)`` — the
  leaf multiset determines the charge, so dedup would falsify it).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gateway.inflight import InflightSearchTable
from repro.textsys.parser import share_key
from repro.textsys.query import (
    AndQuery,
    NotQuery,
    OrQuery,
    TermQuery,
    canonicalize_for_sharing,
)

TERMS = [
    ("title", "belief"),
    ("title", "text"),
    ("title", "systems"),
    ("abstract", "update"),
    ("abstract", "retrieval"),
    ("author", "gravano"),
]

leaves = st.sampled_from(TERMS).map(lambda pair: TermQuery(*pair))

trees = st.recursive(
    leaves,
    lambda children: st.builds(
        lambda operands, connective: connective(tuple(operands)),
        st.lists(children, min_size=2, max_size=3),
        st.sampled_from([AndQuery, OrQuery]),
    ),
    max_leaves=6,
)


def scramble(node, rng: random.Random):
    """An equivalent rewriting: shuffle operands, randomly re-nest."""
    if isinstance(node, (AndQuery, OrQuery)):
        connective = type(node)
        operands = [scramble(operand, rng) for operand in node.operands]
        rng.shuffle(operands)
        if len(operands) > 2 and rng.random() < 0.5:
            # Re-nest a random prefix under the same connective:
            # AND(a, b, c) -> AND(AND(a, b), c).
            split = rng.randrange(1, len(operands))
            operands = [connective(tuple(operands[:split]))] + operands[split:]
        if rng.random() < 0.3:
            rng.shuffle(operands)
        return connective(tuple(operands))
    if isinstance(node, NotQuery):
        return NotQuery(scramble(node.operand, rng))
    return node


@given(tree=trees, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_equivalent_rewritings_share_one_key(tree, seed):
    variant = scramble(tree, random.Random(seed))
    assert share_key(tree) == share_key(variant)


@given(tree=trees, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(
    max_examples=50,
    deadline=None,
    # The server is read-only under search; reuse across examples is safe.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_equal_keys_mean_identical_server_answers(
    tree, seed, tiny_server
):
    """Merging is sound: the canonical stand-in and every rewriting
    produce the same docids AND the same postings charge."""
    variant = scramble(tree, random.Random(seed))
    assert share_key(tree) == share_key(variant)
    original = tiny_server.search(tree)
    rewritten = tiny_server.search(variant)
    canonical = tiny_server.search(canonicalize_for_sharing(tree))
    assert tuple(rewritten.docids) == tuple(original.docids)
    assert tuple(canonical.docids) == tuple(original.docids)
    assert rewritten.postings_processed == original.postings_processed
    assert canonical.postings_processed == original.postings_processed


class _CountingBackend:
    """Answers every search with its own rendering; counts dispatches."""

    batch_limit = 50

    def __init__(self):
        self.searches = 0

    def search(self, query):
        self.searches += 1
        return query.to_expression()

    def search_batch(self, queries):
        return [self.search(query) for query in queries]


@given(first=trees, second=trees)
@settings(max_examples=100, deadline=None)
def test_unequal_keys_are_never_grouped(first, second):
    """The real table, one thread, zero window: two searches admitted
    together travel once iff their share keys are equal."""
    backend = _CountingBackend()
    outcomes = InflightSearchTable().fetch(backend, [first, second])
    assert outcomes[0] == (first.to_expression(), False)
    if share_key(first) == share_key(second):
        assert backend.searches == 1
        assert outcomes[1] == (first.to_expression(), True)
    else:
        assert backend.searches == 2
        assert outcomes[1] == (second.to_expression(), False)


def test_duplicates_inside_a_conjunction_are_preserved():
    """AND(x, x, y) keeps both x's: the leaf multiset (and with it the
    postings charge, invariant 11) survives canonicalization."""
    x = TermQuery("title", "belief")
    y = TermQuery("abstract", "update")
    doubled = AndQuery((x, AndQuery((x, y))))
    canonical = canonicalize_for_sharing(doubled)
    assert isinstance(canonical, AndQuery)
    assert len(canonical.operands) == 3
    assert share_key(doubled) != share_key(AndQuery((x, y)))


def test_not_operands_canonicalize_recursively():
    x = TermQuery("title", "belief")
    y = TermQuery("abstract", "update")
    left = AndQuery((x, NotQuery(OrQuery((x, y)))))
    right = AndQuery((NotQuery(OrQuery((y, x))), x))
    assert share_key(left) == share_key(right)


def test_string_and_node_forms_share_one_key():
    assert share_key("TI='belief' and AB='update'") == share_key(
        AndQuery(
            (TermQuery("abstract", "update"), TermQuery("title", "belief"))
        )
    )


def test_single_operand_connective_collapses():
    x = TermQuery("title", "belief")
    assert share_key(AndQuery((x,))) == share_key(x)
