"""Edge-case tests for the plan executor: document pseudo-rows and the
short-to-long-form upgrade path."""

import pytest

from repro.core.executor import document_row, document_schema, execute_plan
from repro.core.joinmethods import RelationalTextProcessing, TupleSubstitution
from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.enumerate import optimize_multijoin
from repro.core.optimizer.estimator import PlanEstimator
from repro.core.optimizer.multiquery import MultiJoinQuery
from repro.core.optimizer.plan import JoinNode, ScanNode, TextJoinNode, TextScanNode
from repro.core.query import TextJoinPredicate, TextSelection
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import Document, DocumentStore
from repro.textsys.server import BooleanTextServer


class TestDocumentRows:
    def test_schema_shape(self):
        schema = document_schema(["title", "author"], "mercury")
        assert schema.names() == [
            "mercury.docid",
            "mercury.title",
            "mercury.author",
        ]

    def test_row_values_and_missing_fields(self):
        schema = document_schema(["title", "author"], "m")
        document = Document("d1", {"title": "t"})
        row = document_row(document, schema, ["title", "author"])
        assert row["m.docid"] == "d1"
        assert row["m.title"] == "t"
        assert row["m.author"] is None


@pytest.fixture
def world_with_hidden_field():
    """The author field is NOT in the short form, so any plan that must
    match authors locally has to retrieve long forms."""
    catalog = Catalog()
    student = catalog.create_table(
        "student", Schema.of(("name", DataType.VARCHAR))
    )
    student.insert_many([["radhika"], ["gravano"], ["kao"]])

    store = DocumentStore(
        ["title", "author", "year"],
        short_fields=["title", "year"],  # author hidden from short form
    )
    store.add_record(
        "d1", title="report one", author="radhika", year="may 1993"
    )
    store.add_record(
        "d2", title="report two", author="gravano", year="may 1993"
    )
    store.add_record("d3", title="report three", author="kao", year="june 1991")
    return catalog, BooleanTextServer(store)


class TestLongFormUpgrade:
    def test_text_scan_plan_upgrades_documents(self, world_with_hidden_field):
        """A TextScan plan matches text predicates locally; with the
        author field absent from the short form the executor must fetch
        long forms (each charged c_l) to evaluate them."""
        catalog, server = world_with_hidden_field
        query = MultiJoinQuery(
            relations=("student",),
            text_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("may 1993", "year"),),
            text_source="m",
        )
        context = JoinContext(catalog, TextClient(server))
        estimator = PlanEstimator(query, context)
        optimized = optimize_multijoin(query, estimator, space="extended")
        run_context = JoinContext(catalog, TextClient(server))
        execution = execute_plan(optimized.plan, query, run_context)

        names = {row["student.name"] for row in execution.rows}
        assert names == {"radhika", "gravano"}
        if "TextScan" in optimized.plan.describe():
            # Two may-1993 documents upgraded to long form.
            assert execution.cost.long_documents == 2

    def test_results_correct_regardless_of_plan_shape(
        self, world_with_hidden_field
    ):
        catalog, server = world_with_hidden_field
        query = MultiJoinQuery(
            relations=("student",),
            text_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("may 1993", "year"),),
            text_source="m",
        )
        results = set()
        for space in ("traditional", "extended"):
            context = JoinContext(catalog, TextClient(server))
            estimator = PlanEstimator(query, context)
            optimized = optimize_multijoin(query, estimator, space=space)
            execution = execute_plan(
                optimized.plan, query, JoinContext(catalog, TextClient(server))
            )
            results.add(
                frozenset(
                    (row["student.name"], row["m.docid"])
                    for row in execution.rows
                )
            )
        assert len(results) == 1


class TestIntegerJoinColumn:
    def test_same_answer_whichever_plan_evaluates_the_predicate(
        self, world_with_hidden_field
    ):
        """``edition.year in year`` over an INTEGER column: instantiated
        into a search (TS), string-matched by RTP, or deferred to a
        relational join over a text scan (``TextMatch``) — every plan
        matches ``str(value)`` and returns the same rows."""
        catalog, server = world_with_hidden_field
        edition = catalog.create_table(
            "edition", Schema.of(("year", DataType.INTEGER))
        )
        edition.insert_many([[1993], [1850], [None]])
        predicate = TextJoinPredicate("edition.year", "year")
        selections = (TextSelection("report", "title"),)
        query = MultiJoinQuery(
            relations=("edition",),
            text_predicates=(predicate,),
            text_selections=selections,
            text_source="m",
        )
        plans = [
            TextJoinNode(
                ScanNode("edition"), TupleSubstitution(), (predicate,), selections
            ),
            TextJoinNode(
                ScanNode("edition"),
                RelationalTextProcessing(),
                (predicate,),
                selections,
            ),
            JoinNode(
                TextScanNode(selections),
                ScanNode("edition"),
                text_match_predicates=(predicate,),
            ),
        ]
        keys = [
            execute_plan(
                plan, query, JoinContext(catalog, TextClient(server))
            ).result_keys()
            for plan in plans
        ]
        assert keys[0] == keys[1] == keys[2]
        assert {dict(key)["m.docid"] for key in keys[0]} == {"d1", "d2"}
