"""Property tests for the multi-join optimizer (invariants 8 and 9).

On randomly generated multi-relation worlds:

- every execution space returns exactly the reference (brute-force)
  result;
- the PrL-space estimated cost never exceeds the traditional-space
  estimated cost, and the extended space never exceeds PrL.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.executor import execute_plan
from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.enumerate import optimize_multijoin
from repro.core.optimizer.estimator import PlanEstimator
from repro.core.optimizer.multiquery import (
    MultiJoinQuery,
    RelationalJoinPredicate,
)
from repro.core.query import TextJoinPredicate, TextSelection
from repro.core.textmatch import value_matches_field
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.expressions import ColumnRef, Comparison
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.server import BooleanTextServer

NAMES = ["ada", "bob", "cyd", "dee", "eli"]
KEYS = ["k1", "k2", "k3"]
YEARS = ["may 1993", "june 1994"]


def random_world(seed: int):
    """2–3 chain-joined relations + a text source with random authorship."""
    rng = random.Random(seed)
    catalog = Catalog()
    relation_count = rng.randint(2, 3)
    relations = []
    for index in range(relation_count):
        name = f"t{index}"
        table = catalog.create_table(
            name,
            Schema.of(("key", DataType.VARCHAR), ("who", DataType.VARCHAR)),
        )
        for _ in range(rng.randint(1, 6)):
            table.insert([rng.choice(KEYS), rng.choice(NAMES + [None])])
        relations.append(name)

    store = DocumentStore(
        ["title", "author", "year"], short_fields=["title", "author", "year"]
    )
    for i in range(rng.randint(1, 10)):
        authors = " ".join(rng.sample(NAMES, rng.randint(0, 3)))
        store.add(
            Document(
                f"d{i}",
                {
                    "title": "report",
                    "author": authors,
                    "year": rng.choice(YEARS),
                },
            )
        )
    server = BooleanTextServer(store)

    # Text predicates on a random non-empty subset of relations.
    text_relations = rng.sample(relations, rng.randint(1, len(relations)))
    text_predicates = tuple(
        TextJoinPredicate(f"{relation}.who", "author")
        for relation in text_relations
    )
    join_predicates = tuple(
        RelationalJoinPredicate(
            Comparison(
                "=",
                ColumnRef(f"{relations[i]}.key"),
                ColumnRef(f"{relations[i + 1]}.key"),
            ),
            (relations[i], relations[i + 1]),
        )
        for i in range(relation_count - 1)
    )
    selections = (
        (TextSelection("may 1993", "year"),) if rng.random() < 0.5 else ()
    )
    query = MultiJoinQuery(
        relations=tuple(relations),
        text_predicates=text_predicates,
        text_selections=selections,
        join_predicates=join_predicates,
        text_source="doc",
    )
    return catalog, server, query


def reference_result(catalog, server, query):
    """Brute-force evaluation: cartesian product x documents, filtered."""
    tables = [list(catalog.table(name).scan()) for name in query.relations]

    def combos(index, acc):
        if index == len(tables):
            yield acc
            return
        for row in tables[index]:
            yield from combos(index + 1, acc + [row])

    expected = set()
    for combo in combos(0, []):
        by_relation = dict(zip(query.relations, combo))
        ok = True
        for predicate in query.join_predicates:
            left, right = (by_relation[name] for name in predicate.relations)
            joined = Row(left.schema.concat(right.schema), left.values + right.values)
            if predicate.expression.evaluate(joined) is not True:
                ok = False
                break
        if not ok:
            continue
        for document in server.store:
            if not all(
                value_matches_field(selection.term, document.field(selection.field))
                for selection in query.text_selections
            ):
                continue
            matched = True
            for predicate in query.text_predicates:
                value = by_relation[
                    predicate.column.split(".", 1)[0]
                ][predicate.column]
                if value is None or not value_matches_field(
                    str(value), document.field(predicate.field)
                ):
                    matched = False
                    break
            if matched:
                key = tuple(
                    by_relation[relation]["who"] for relation in query.relations
                ) + tuple(
                    by_relation[relation]["key"] for relation in query.relations
                ) + (document.docid,)
                expected.add(key)
    return expected


def plan_result(execution, query):
    out = set()
    for row in execution.rows:
        key = tuple(
            row[f"{relation}.who"] for relation in query.relations
        ) + tuple(
            row[f"{relation}.key"] for relation in query.relations
        ) + (row[f"{query.text_source}.docid"],)
        out.add(key)
    return out


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_every_space_matches_reference(seed):
    catalog, server, query = random_world(seed)
    expected = reference_result(catalog, server, query)
    for space in ("traditional", "prl", "extended"):
        context = JoinContext(catalog, TextClient(server))
        estimator = PlanEstimator(query, context)
        optimized = optimize_multijoin(query, estimator, space=space)
        execution = execute_plan(
            optimized.plan, query, JoinContext(catalog, TextClient(server))
        )
        assert plan_result(execution, query) == expected, (space, seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_space_costs_nest(seed):
    """estimated(extended) <= estimated(prl) <= estimated(traditional)."""
    catalog, server, query = random_world(seed)
    costs = {}
    for space in ("traditional", "prl", "extended"):
        context = JoinContext(catalog, TextClient(server))
        estimator = PlanEstimator(query, context)
        costs[space] = optimize_multijoin(
            query, estimator, space=space
        ).estimated_cost
    assert costs["prl"] <= costs["traditional"] + 1e-9, seed
    assert costs["extended"] <= costs["prl"] + 1e-9, seed
