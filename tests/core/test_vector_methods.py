"""Per-backend method legality and the ranked strategy space.

The Section 3 methods are sound only under Boolean monotone semantics;
a vector backend gets V-TOPK / V-SCAN instead.  These tests pin the
legality guard from every direction — enumerator, explicit method
override, strategy-side check — and the cost formulas and execution
semantics of the two ranked strategies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.costmodel import (
    VectorCostInputs,
    cost_vector_scan,
    cost_vector_topk,
)
from repro.core.heterogeneous import build_vector_cost_inputs
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import (
    JoinContext,
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
    VectorCorpusScan,
    VectorTopKProbe,
    ensure_method_legal,
)
from repro.core.optimizer import MultiJoinQuery, PlanEstimator
from repro.core.optimizer.single_join import enumerate_method_choices
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
    VectorJoinPredicate,
)
from repro.errors import (
    JoinMethodError,
    OptimizationError,
    PlanError,
    StatisticsError,
)
from repro.gateway.client import TextClient
from repro.gateway.costs import VECTOR_CONSTANTS
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.vectorserver import VectorTextServer
from tests.textsys.vector_reads import ranked_docids

BOOLEAN_METHODS = [
    TupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    ProbeTupleSubstitution,
    ProbeRtp,
    ProbeSemiJoin,
]


def make_method(method_class):
    """Instantiate any Section 3 method; probes need their columns."""
    if method_class in (ProbeTupleSubstitution, ProbeRtp):
        return method_class(("paper.title",))
    return method_class()


@pytest.fixture
def store() -> DocumentStore:
    store = DocumentStore(["title", "topic"], short_fields=["title", "topic"])
    store.add_record("d1", title="belief update", topic="belief revision")
    store.add_record("d2", title="query plans", topic="query optimization")
    store.add_record("d3", title="text joins", topic="text query systems")
    return store


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    table = catalog.create_table(
        "paper",
        Schema.of(("topic", DataType.VARCHAR), ("title", DataType.VARCHAR)),
    )
    table.insert(["belief revision", "belief update"])
    table.insert(["query optimization", "query plans"])
    table.insert([None, "nulls never bind"])
    return catalog


@pytest.fixture
def vector_context(store, catalog) -> JoinContext:
    client = TextClient(
        VectorTextServer(store, "topic"), constants=VECTOR_CONSTANTS
    )
    return JoinContext(catalog, client)


@pytest.fixture
def boolean_context(store, catalog) -> JoinContext:
    return JoinContext(catalog, TextClient(BooleanTextServer(store)))


@pytest.fixture
def boolean_query() -> TextJoinQuery:
    return TextJoinQuery(
        relation="paper",
        join_predicates=(TextJoinPredicate("paper.title", "title"),),
        shape=ResultShape.TUPLES,
    )


class TestMethodLegality:
    @pytest.mark.parametrize("method_class", BOOLEAN_METHODS)
    def test_section3_methods_refuse_vector_sources(self, method_class):
        with pytest.raises(OptimizationError, match="monotonicity"):
            ensure_method_legal(make_method(method_class), "vector")

    @pytest.mark.parametrize("method_class", BOOLEAN_METHODS)
    def test_section3_methods_accept_boolean_sources(self, method_class):
        ensure_method_legal(make_method(method_class), "boolean")  # no raise

    def test_forced_override_raises_typed_error(
        self, vector_context, boolean_query
    ):
        """Explicitly executing a Boolean method against the vector
        backend — the 'method override' escape hatch — must fail with
        the typed OptimizationError, not run unsoundly."""
        with pytest.raises(OptimizationError, match="Section 8"):
            TupleSubstitution().execute(boolean_query, vector_context)

    def test_vector_strategies_refuse_boolean_clients(self, boolean_context):
        predicate = VectorJoinPredicate("paper.topic", "topic")
        with pytest.raises(JoinMethodError, match="'vector' backend"):
            VectorTopKProbe().run(predicate, [], boolean_context)
        with pytest.raises(JoinMethodError, match="'vector' backend"):
            VectorCorpusScan().run(predicate, [], boolean_context)

    def test_input_gathering_fails_fast_on_vector_backends(
        self, vector_context, boolean_query
    ):
        """Statistics sampling never even starts against a ranked source —
        the guard fires before any Boolean probe is sent."""
        with pytest.raises(OptimizationError, match="Boolean"):
            build_cost_inputs(boolean_query, vector_context)

    def test_estimator_fails_fast_on_vector_backends(self, vector_context):
        """The multi-join estimator shares the gatherer's guard: a typed
        OptimizationError before any call — not a bare TextSystemError
        from the first Boolean probe the vector server rejects."""
        query = MultiJoinQuery(
            relations=("paper",),
            text_predicates=(TextJoinPredicate("paper.title", "title"),),
            text_selections=(TextSelection("belief", "title"),),
        )
        server = vector_context.client.server
        with pytest.raises(OptimizationError, match="Boolean"):
            PlanEstimator(query, vector_context)
        assert server.counters.searches == 0

    def test_vector_inputs_refuse_boolean_backends(self, boolean_context):
        """The same guard, the other way round: ranked statistics are not
        measured against a Boolean source."""
        predicate = VectorJoinPredicate("paper.topic", "topic")
        with pytest.raises(OptimizationError, match="'boolean' backend"):
            build_vector_cost_inputs(predicate, [], boolean_context)

    def test_enumerator_refuses_vector_inputs(
        self, boolean_context, boolean_query
    ):
        inputs = build_cost_inputs(boolean_query, boolean_context)
        assert inputs.source_kind == "boolean"
        enumerate_method_choices(boolean_query, inputs)  # legal here
        tainted = dataclasses.replace(inputs, source_kind="vector")
        with pytest.raises(OptimizationError, match="Boolean"):
            enumerate_method_choices(boolean_query, tainted)

    def test_enumerator_guard_on_the_witness_corpus(self, catalog):
        """The Section 8 witness promoted to an optimizer guard: on a
        corpus where adding a term ADDS an answer, the enumerator never
        emits any probe-based method for the vector source."""
        store = DocumentStore(["body"], short_fields=["body"])
        store.add_record("rare", body="zeppelin zeppelin zeppelin")
        store.add_record("mixed", body="zeppelin database systems")
        store.add_record("common", body="database systems design")
        server = VectorTextServer(store, "body")
        # First, the witness itself: wider query, strictly more answers.
        narrow = ranked_docids(server.engine, ["zeppelin"])
        wide = ranked_docids(server.engine, ["zeppelin", "design"])
        assert set(wide) - set(narrow)
        # Then the guard: the Section 3 space is closed to this source.
        context = JoinContext(
            catalog, TextClient(server, constants=VECTOR_CONSTANTS)
        )
        query = TextJoinQuery(
            relation="paper",
            join_predicates=(TextJoinPredicate("paper.title", "body"),),
            shape=ResultShape.TUPLES,
        )
        with pytest.raises(OptimizationError):
            build_cost_inputs(query, context)
        for method_class in BOOLEAN_METHODS:
            with pytest.raises((OptimizationError, JoinMethodError)):
                make_method(method_class).execute(query, context)


class TestVectorPredicate:
    def test_validation(self):
        with pytest.raises(PlanError):
            VectorJoinPredicate("", "topic")
        with pytest.raises(PlanError):
            VectorJoinPredicate("paper.topic", "")
        with pytest.raises(PlanError):
            VectorJoinPredicate("paper.topic", "topic", top_k=0)

    def test_repr_carries_parameters(self):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=7)
        assert "k=7" in repr(predicate)
        unbounded = VectorJoinPredicate("paper.topic", "topic", top_k=None)
        assert "k=all" in repr(unbounded)


class TestCostFormulas:
    def make_inputs(self, **overrides) -> VectorCostInputs:
        parameters = dict(
            constants=VECTOR_CONSTANTS,
            document_count=100,
            binding_count=4.0,
            postings_per_search=20.0,
            expected_results=5.0,
            top_k=5,
            scan_visible=True,
        )
        parameters.update(overrides)
        return VectorCostInputs(**parameters)

    def test_topk_formula_exact(self):
        inputs = self.make_inputs()
        estimate = cost_vector_topk(inputs)
        constants = VECTOR_CONSTANTS
        assert estimate.method == "V-TOPK(k=5)"
        assert estimate.searches == 4.0
        assert estimate.invocation == pytest.approx(4 * constants.invocation)
        assert estimate.processing == pytest.approx(4 * 20 * constants.per_posting)
        assert estimate.transmission_short == pytest.approx(
            4 * 5 * constants.short_form
        )
        assert estimate.total == pytest.approx(
            estimate.invocation + estimate.processing
            + estimate.transmission_short
        )

    def test_topk_unbounded_label(self):
        estimate = cost_vector_topk(self.make_inputs(top_k=None))
        assert estimate.method == "V-TOPK(k=all)"

    def test_scan_formula_exact(self):
        inputs = self.make_inputs()
        estimate = cost_vector_scan(inputs)
        constants = VECTOR_CONSTANTS
        assert estimate.method == "V-SCAN"
        assert estimate.searches == 1
        assert estimate.invocation == pytest.approx(constants.invocation)
        assert estimate.transmission_short == pytest.approx(
            100 * constants.short_form
        )
        assert estimate.rtp == pytest.approx(100 * 4 * constants.rtp_per_document)

    def test_scan_requires_visibility(self):
        with pytest.raises(StatisticsError, match="short"):
            cost_vector_scan(self.make_inputs(scan_visible=False))

    def test_negative_inputs_rejected(self):
        with pytest.raises(StatisticsError):
            self.make_inputs(binding_count=-1.0)
        with pytest.raises(StatisticsError):
            self.make_inputs(postings_per_search=-0.5)

    def test_crossover_in_binding_count(self):
        """Few bindings favor V-TOPK; many bindings favor V-SCAN."""
        few = self.make_inputs(binding_count=1.0)
        many = self.make_inputs(binding_count=50.0)
        assert cost_vector_topk(few).total < cost_vector_scan(few).total
        assert cost_vector_scan(many).total < cost_vector_topk(many).total


class TestStrategyExecution:
    def rows(self, context):
        return list(context.catalog.table("paper").scan())

    def test_topk_dedupes_bindings_and_skips_nulls(self, vector_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=2)
        rows = self.rows(vector_context) + self.rows(vector_context)
        execution = VectorTopKProbe().run(predicate, rows, vector_context)
        # 2 distinct non-NULL bindings, despite 6 input rows.
        assert execution.searches == 2
        assert len(execution.row_matches) == 6
        null_rows = [
            matches
            for row, matches in execution.row_matches
            if row["paper.topic"] is None
        ]
        assert null_rows == [(), ()]

    def test_scan_and_topk_agree_on_matches(self, vector_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=3)
        rows = self.rows(vector_context)
        probe = VectorTopKProbe().run(predicate, rows, vector_context)
        scan = VectorCorpusScan().run(predicate, rows, vector_context)
        assert probe.result_keys() == scan.result_keys()
        assert probe.result_keys()
        assert all(
            any(matches for _, matches in execution.row_matches)
            for execution in (probe, scan)
        )

    def test_scan_searches_once_and_charges_rtp(self, vector_context):
        predicate = VectorJoinPredicate("paper.topic", "topic")
        execution = VectorCorpusScan().run(
            predicate, self.rows(vector_context), vector_context
        )
        assert execution.searches == 1
        assert execution.cost.searches == 1
        # 2 distinct bindings x 3 dumped documents each.
        assert execution.cost.rtp_documents == 6
        assert execution.cost.short_documents == 3

    def test_scan_inapplicable_without_short_visibility(self, catalog):
        hidden = DocumentStore(["topic"], short_fields=[])
        hidden.add_record("d1", topic="belief revision")
        context = JoinContext(
            catalog,
            TextClient(
                VectorTextServer(hidden, "topic"), constants=VECTOR_CONSTANTS
            ),
        )
        predicate = VectorJoinPredicate("paper.topic", "topic")
        assert not VectorCorpusScan().applicable(predicate, context)
        with pytest.raises(JoinMethodError, match="not applicable"):
            VectorCorpusScan().run(predicate, [], context)
        assert VectorTopKProbe().applicable(predicate, context)

    def test_charges_use_vector_constants(self, vector_context):
        predicate = VectorJoinPredicate("paper.topic", "topic", top_k=2)
        execution = VectorTopKProbe().run(
            predicate, self.rows(vector_context), vector_context
        )
        constants = VECTOR_CONSTANTS
        expected = (
            execution.cost.searches * constants.invocation
            + execution.cost.postings_processed * constants.per_posting
            + execution.cost.short_documents * constants.short_form
        )
        assert execution.cost.total == pytest.approx(expected)
