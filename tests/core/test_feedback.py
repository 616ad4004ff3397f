"""Tests for the estimator feedback loop: q-errors, blending, the
re-optimizing guard, and the charge-identity contract (invariant 14)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.feedback_loop import (
    feedback_loop_report,
    stale_statistics_registry,
)
from repro.core.adaptive import (
    _inputs_with_observation,
    execute_adaptively,
)
from repro.core.executor import execute_plan
from repro.core.feedback import (
    EstimateRecord,
    FeedbackStore,
    QErrorReport,
    corpus_fingerprint,
    qerror,
    query_key,
)
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods.base import JoinContext
from repro.core.optimizer.enumerate import optimize_multijoin
from repro.core.optimizer.estimator import PlanEstimator
from repro.core.optimizer.multiquery import MultiJoinQuery
from repro.core.optimizer.single_join import enumerate_method_choices
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import FeedbackError, OptimizationError, StatisticsError
from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.sampling import observed_predicate_statistics
from repro.gateway.statistics import (
    PredicateStatistics,
    TextStatisticsRegistry,
    blend_statistics,
)
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer


def q4_query():
    return TextJoinQuery(
        relation="student",
        join_predicates=(
            TextJoinPredicate("student.advisor", "author"),
            TextJoinPredicate("student.name", "author"),
        ),
    )


# ----------------------------------------------------------------------
# q-error arithmetic and reports
# ----------------------------------------------------------------------
class TestQError:
    def test_symmetric(self):
        assert qerror(10, 100) == qerror(100, 10) == 10.0

    def test_exact_estimate_is_one(self):
        assert qerror(42.0, 42.0) == 1.0

    def test_zero_actual_uses_floor(self):
        # An estimated-empty result that came back non-empty must be
        # flagged, not crash on division by zero.
        assert qerror(0.0, 50.0) == 50.0
        assert qerror(50.0, 0.0) == 50.0
        assert qerror(0.0, 0.0) == 1.0

    def test_seconds_floor(self):
        record = EstimateRecord("m", "method", 0.0005, 0.1, unit="seconds")
        assert record.q == pytest.approx(100.0)

    def test_bad_floor_raises(self):
        with pytest.raises(FeedbackError):
            qerror(1.0, 1.0, floor=0.0)

    def test_report_statistics(self):
        empty = QErrorReport()
        assert empty.max_q == 1.0 and empty.median_q == 1.0
        report = QErrorReport(
            [
                EstimateRecord("x", "node", estimated, actual)
                for estimated, actual in ((10, 10), (10, 20), (10, 80))
            ]
        )
        assert report.max_q == 8.0
        assert report.median_q == 2.0
        assert [round(r.q) for r in report.worst(2)] == [8, 2]
        assert "median q-error 2.00" in report.render()


# ----------------------------------------------------------------------
# blending and observed statistics
# ----------------------------------------------------------------------
class TestBlending:
    PRIOR = PredicateStatistics("c", "f", selectivity=0.5, fanout=2.0)

    def test_zero_sample_observation_keeps_prior(self):
        observed = PredicateStatistics(
            "c", "f", selectivity=0.9, fanout=9.0, sample_size=0
        )
        assert blend_statistics(self.PRIOR, observed, 16.0) == self.PRIOR

    def test_precision_weighted_mean(self):
        observed = PredicateStatistics(
            "c", "f", selectivity=1.0, fanout=6.0, sample_size=4
        )
        blended = blend_statistics(self.PRIOR, observed, 4.0)
        assert blended.selectivity == pytest.approx((4 * 0.5 + 4 * 1.0) / 8)
        assert blended.fanout == pytest.approx((4 * 2.0 + 4 * 6.0) / 8)
        assert blended.sample_size == 4

    def test_heavy_observation_dominates(self):
        observed = PredicateStatistics(
            "c", "f", selectivity=1.0, fanout=6.0, sample_size=1000
        )
        blended = blend_statistics(self.PRIOR, observed, 1.0)
        assert blended.fanout == pytest.approx(6.0, rel=0.01)

    def test_negative_prior_weight_raises(self):
        observed = PredicateStatistics("c", "f", 0.9, 1.0, sample_size=1)
        with pytest.raises(StatisticsError):
            blend_statistics(self.PRIOR, observed, -1.0)

    def test_observed_statistics_validate(self):
        stats = observed_predicate_statistics("c", "f", 4, 3, 10.0)
        assert stats.selectivity == 0.75
        assert stats.fanout == 2.5
        assert stats.sample_size == 4
        with pytest.raises(StatisticsError):
            observed_predicate_statistics("c", "f", 0, 0, 0.0)
        # Counter noise is clamped into the valid domain, never NaN.
        clamped = observed_predicate_statistics("c", "f", 2, 5, -3.0)
        assert clamped.selectivity == 1.0
        assert clamped.fanout == 0.0


# ----------------------------------------------------------------------
# fingerprints and canonical query keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_fingerprint_changes_on_corpus_mutation(self, tiny_server):
        before = corpus_fingerprint(tiny_server)
        tiny_server.store.add_record("d99", title="fresh", author="someone")
        after = corpus_fingerprint(tiny_server)
        assert before != after

    def test_fingerprint_stable_across_server_instances(self, tiny_store):
        assert corpus_fingerprint(
            BooleanTextServer(tiny_store)
        ) == corpus_fingerprint(BooleanTextServer(tiny_store))

    def test_query_key_predicate_order_insensitive(self):
        forward = q4_query()
        backward = TextJoinQuery(
            relation="student",
            join_predicates=tuple(reversed(forward.join_predicates)),
        )
        assert query_key(forward) == query_key(backward)

    def test_query_key_includes_selections(self):
        with_selection = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("belief update", "title"),),
        )
        without = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
        )
        assert query_key(with_selection) != query_key(without)


# ----------------------------------------------------------------------
# the re-optimizing guard (scenario-scale, seeded)
# ----------------------------------------------------------------------
class TestReoptimization:
    @pytest.fixture(scope="class")
    def loop(self):
        return feedback_loop_report()

    def test_run1_aborts_and_reoptimizes(self, loop):
        run1 = loop["run1"]
        assert run1["attempts"][0]["aborted"]
        assert run1["reoptimizations"] == 1
        assert run1["winner"] != run1["first_choice"]

    def test_run2_flips_to_cheaper_method(self, loop):
        run1, run2 = loop["run1"], loop["run2"]
        assert run2["winner"] != run1["winner"]
        assert run2["total_cost"] < run1["total_cost"]
        assert not any(a["aborted"] for a in run2["attempts"])
        assert loop["results_identical"]

    def test_abort_recorded_with_true_cause(self, loop):
        store = loop["store"]
        aborts = [r for r in store.report().records if r.kind == "abort"]
        assert len(aborts) == 1
        record = aborts[0]
        assert record.label.startswith("guard:P(advisor)")
        assert record.unit == "documents"
        assert record.actual > record.estimated  # fetched blew past the cap
        from repro.workload import build_default_scenario

        fingerprint = corpus_fingerprint(build_default_scenario(seed=7).server)
        observation = store.observation(fingerprint, "student.advisor", "author")
        assert observation is not None
        assert observation.searches >= 1

    def test_wrong_probe_column_choice_flips(self, scenario):
        """A stale lie makes {name} the probe column; the guard's
        observation re-ranks the probe sets back to {advisor}."""
        query = scenario.q4()
        registry = TextStatisticsRegistry()
        registry.put(
            PredicateStatistics(
                "student.advisor", "author", selectivity=1.0, fanout=6.0
            )
        )
        # The lie: student names are ultra-selective, near-zero fanout.
        registry.put(
            PredicateStatistics(
                "student.name", "author", selectivity=0.05, fanout=0.05
            )
        )
        inputs = build_cost_inputs(query, scenario.context(), registry=registry)
        lied = {c.name for c in enumerate_method_choices(query, inputs)}
        assert "P(name)+TS" in lied
        assert "P(advisor)+TS" not in lied

        # What a guard abort on a name-probing method would observe:
        # nearly every probe matches, about one document per probe.
        corrected = _inputs_with_observation(
            inputs,
            {
                "probe_columns": ("student.name",),
                "fields": {"student.name": "author"},
                "probes": 13,
                "successes": 12,
                "fetched": 15.0,
            },
        )
        fixed = {c.name for c in enumerate_method_choices(query, corrected)}
        assert "P(advisor)+TS" in fixed
        assert "P(name)+TS" not in fixed

    def test_wrong_sj_batching_flips(self, scenario):
        """Corrected fanout re-derives the semi-join's fetch expectation:
        SJ+RTP drops from runner-up to last once the advisor fanout is
        observed (the batched fetch volume was the misestimate)."""
        query = scenario.q4()
        inputs = build_cost_inputs(
            query, scenario.context(), registry=stale_statistics_registry()
        )
        stale_order = [c.name for c in enumerate_method_choices(query, inputs)]
        assert stale_order.index("SJ+RTP") == 1

        corrected = _inputs_with_observation(
            inputs,
            {
                "probe_columns": ("student.advisor",),
                "fields": {"student.advisor": "author"},
                "probes": 2,
                "successes": 2,
                "fetched": 12.0,
            },
        )
        fixed_order = [
            c.name for c in enumerate_method_choices(query, corrected)
        ]
        assert fixed_order.index("SJ+RTP") > fixed_order.index("TS")


# ----------------------------------------------------------------------
# invariant 14: feedback never perturbs the executing plan's charges
# ----------------------------------------------------------------------
class TestChargeIdentity:
    # The fixtures are read-only here (each example builds fresh clients
    # and its own store), so sharing them across examples is safe.
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        searches=st.integers(min_value=1, max_value=50),
        matched=st.integers(min_value=0, max_value=50),
        documents=st.floats(
            min_value=0.0, max_value=500.0, allow_nan=False
        ),
        prior_weight=st.floats(
            min_value=0.0, max_value=64.0, allow_nan=False
        ),
    )
    def test_recording_never_changes_charges(
        self, tiny_catalog, tiny_server, searches, matched, documents,
        prior_weight,
    ):
        """Whatever the store has observed, executing the plan it picked
        charges exactly what a feedback-free execution of the same plan
        charges — bit-identical, not approximately."""
        query = q4_query()
        store = FeedbackStore(prior_weight=prior_weight)
        fingerprint = corpus_fingerprint(tiny_server)
        store.observe_predicate(
            fingerprint, "student.advisor", "author",
            searches=searches, matched=matched, documents=documents,
        )

        context = JoinContext(tiny_catalog, TextClient(tiny_server))
        inputs = build_cost_inputs(query, context, feedback=store)

        recording = JoinContext(tiny_catalog, TextClient(tiny_server))
        with_feedback = execute_adaptively(
            query, recording, inputs, feedback=store
        )
        silent = JoinContext(tiny_catalog, TextClient(tiny_server))
        without_feedback = execute_adaptively(
            query, silent, inputs, feedback=None
        )

        assert with_feedback.total_cost == without_feedback.total_cost
        assert [a.method for a in with_feedback.attempts] == [
            a.method for a in without_feedback.attempts
        ]
        assert [a.spent_cost for a in with_feedback.attempts] == [
            a.spent_cost for a in without_feedback.attempts
        ]
        assert (
            with_feedback.execution.result_keys()
            == without_feedback.execution.result_keys()
        )

    def test_blend_reads_do_not_touch_the_ledger(self, tiny_context):
        query = q4_query()
        store = FeedbackStore()
        fingerprint = corpus_fingerprint(tiny_context.client.server)
        store.observe_predicate(
            fingerprint, "student.advisor", "author", 5, 5, 10.0
        )
        inputs = build_cost_inputs(query, tiny_context)
        before = tiny_context.client.ledger.snapshot()
        for stats in inputs.predicate_stats.values():
            store.blend(stats, fingerprint)
        store.report()
        assert tiny_context.client.ledger.diff(before).total == 0.0


# ----------------------------------------------------------------------
# adaptive cost accounting (the satellite-1 regression)
# ----------------------------------------------------------------------
class TestAdaptiveAccounting:
    def _lying_registry(self):
        registry = TextStatisticsRegistry()
        registry.put(
            PredicateStatistics("student.advisor", "author", 0.01, 0.001)
        )
        registry.put(PredicateStatistics("student.name", "author", 0.9, 2.0e5))
        return registry

    @pytest.mark.parametrize("with_cache", [False, True])
    def test_abort_charges_exactly_once(self, scenario, with_cache):
        """The aborted attempt's spend is neither dropped from
        ``total_cost`` nor double-counted when a warm cache answers the
        fallback's re-fetches.  Pinned identity: the ledger's own diff
        IS the total, and the per-attempt spends sum to it exactly."""
        query = scenario.q4()
        cache = GatewayCache() if with_cache else None
        context = scenario.context(cache=cache)
        inputs = build_cost_inputs(
            query, context, registry=self._lying_registry()
        )
        ledger = context.client.ledger
        before = ledger.snapshot()
        adaptive = execute_adaptively(
            query, context, inputs, safety_factor=0.001
        )
        assert adaptive.fell_back
        assert adaptive.attempts[0].aborted
        assert adaptive.attempts[0].spent_cost > 0.0
        assert adaptive.total_cost == ledger.diff(before).total
        assert adaptive.total_cost == pytest.approx(
            sum(a.spent_cost for a in adaptive.attempts), abs=1e-12
        )
        # The winner's own cost is part of the total, not the whole of it.
        assert adaptive.total_cost > adaptive.execution.cost.total

    def test_warm_cache_saves_without_dropping_charges(
        self, scenario, monkeypatch
    ):
        """With a cache, the fallback's re-fetches after the abort are
        answered locally: the total stays the exact ledger diff (nothing
        double-counted) and lands strictly below the cold-cache total
        (the savings are real, not dropped charges).  Re-ranking is off
        so the fallback is the prior ranking's runner-up, which re-sends
        the aborted probes."""
        import repro.core.adaptive as adaptive_module

        monkeypatch.setattr(adaptive_module, "_MAX_REOPTIMIZATIONS", 0)
        query = scenario.q4()
        cold_context = scenario.context()
        cold = execute_adaptively(
            query,
            cold_context,
            build_cost_inputs(
                query, cold_context, registry=self._lying_registry()
            ),
            safety_factor=0.001,
        )
        cache = GatewayCache()
        warm_context = scenario.context(cache=cache)
        ledger = warm_context.client.ledger
        before = ledger.snapshot()
        warm = execute_adaptively(
            query,
            warm_context,
            build_cost_inputs(
                query, warm_context, registry=self._lying_registry()
            ),
            safety_factor=0.001,
        )
        assert [a.method for a in warm.attempts] == [
            a.method for a in cold.attempts
        ]
        assert cache.hits > 0
        assert warm.total_cost < cold.total_cost
        assert warm.total_cost == ledger.diff(before).total

    def test_all_aborts_raise_with_spent_charges_attached(
        self, scenario, monkeypatch
    ):
        """When every method aborts, the OptimizationError must carry
        the attempt trail and the sunk ledger spend instead of dropping
        them (they are on the ledger regardless)."""
        import repro.core.adaptive as adaptive_module

        query = scenario.q4()
        context = scenario.context()
        inputs = build_cost_inputs(
            query, context, registry=self._lying_registry()
        )
        real_enumerate = adaptive_module.enumerate_method_choices
        monkeypatch.setattr(
            adaptive_module,
            "enumerate_method_choices",
            lambda q, i, **kw: [
                c for c in real_enumerate(q, i, **kw)
                if c.name.startswith("P(") and c.name.endswith("+RTP")
            ],
        )
        ledger = context.client.ledger
        before = ledger.snapshot()
        with pytest.raises(OptimizationError) as caught:
            execute_adaptively(
                query, context, inputs,
                safety_factor=0.001,
            )
        error = caught.value
        assert error.attempts and all(a.aborted for a in error.attempts)
        assert error.spent_cost == ledger.diff(before).total
        assert error.spent_cost > 0.0


# ----------------------------------------------------------------------
# degenerate estimator inputs (the satellite-2 edges)
# ----------------------------------------------------------------------
class TestDegenerateInputs:
    def _catalog(self, rows):
        catalog = Catalog()
        student = catalog.create_table(
            "student",
            Schema.of(
                ("name", DataType.VARCHAR),
                ("advisor", DataType.VARCHAR),
            ),
        )
        student.insert_many(rows)
        return catalog

    def test_empty_relation_executes_cleanly(self, tiny_server):
        context = JoinContext(self._catalog([]), TextClient(tiny_server))
        query = q4_query()
        inputs = build_cost_inputs(query, context)
        assert inputs.tuple_count == 0
        for choice in enumerate_method_choices(query, inputs):
            assert math.isfinite(choice.estimate.total)
            assert choice.estimate.total >= 0.0
        adaptive = execute_adaptively(query, context, inputs)
        assert adaptive.execution.result_keys() == set()

    def test_all_null_join_column_is_zero_not_nan(self, tiny_server):
        context = JoinContext(
            self._catalog([["radhika", None], ["gravano", None]]),
            TextClient(tiny_server),
        )
        query = q4_query()
        inputs = build_cost_inputs(query, context)
        advisor = inputs.predicate_stats["student.advisor"]
        assert (advisor.selectivity, advisor.fanout) == (0.0, 0.0)
        for choice in enumerate_method_choices(query, inputs):
            assert math.isfinite(choice.estimate.total)
        adaptive = execute_adaptively(query, context, inputs)
        assert adaptive.execution.result_keys() == set()

    def test_zero_distinct_probe_column_raises_typed_error(self, tiny_server):
        """A probe column with no recorded distinct count must surface a
        typed OptimizationError from the guard's fetch prediction, not a
        ZeroDivisionError or a NaN cap."""
        from repro.core.adaptive import _predicted_fetch
        from repro.core.joinmethods import ProbeRtp

        context = JoinContext(
            self._catalog([["radhika", "garcia"]]), TextClient(tiny_server)
        )
        query = q4_query()
        inputs = build_cost_inputs(query, context)
        inputs.distinct_counts = {}  # simulate a catalog with no counts
        with pytest.raises(OptimizationError):
            _predicted_fetch(ProbeRtp(("student.advisor",)), inputs)

    def test_empty_corpus_estimation_raises_typed_error(self):
        empty_server = BooleanTextServer(
            DocumentStore(["title", "author"], short_fields=["title", "author"])
        )
        context = JoinContext(
            self._catalog([["radhika", "garcia"]]), TextClient(empty_server)
        )
        query = MultiJoinQuery(
            relations=("student",),
            text_predicates=(TextJoinPredicate("student.name", "author"),),
            text_source="m",
        )
        estimator = PlanEstimator(query, context)
        with pytest.raises(OptimizationError):
            optimize_multijoin(query, estimator, space="extended")


# ----------------------------------------------------------------------
# plan-node estimate records (PlanExecution.estimates)
# ----------------------------------------------------------------------
class TestPlanNodeActuals:
    def test_node_actuals_cover_the_plan(self, tiny_catalog, tiny_server):
        query = MultiJoinQuery(
            relations=("student",),
            text_predicates=(TextJoinPredicate("student.name", "author"),),
            text_source="m",
        )
        context = JoinContext(tiny_catalog, TextClient(tiny_server))
        estimator = PlanEstimator(query, context)
        optimized = optimize_multijoin(query, estimator, space="extended")
        run_context = JoinContext(tiny_catalog, TextClient(tiny_server))
        execution = execute_plan(optimized.plan, query, run_context)

        # Two records per node, rows then charged seconds, bottom-up.
        estimates = execution.estimates
        assert estimates and len(estimates) % 2 == 0
        assert all(record.kind == "node" for record in estimates)
        assert [r.label for r in estimates[::2]] == [
            r.label for r in estimates[1::2]
        ]
        assert {r.unit for r in estimates[::2]} == {"rows"}
        assert {r.unit for r in estimates[1::2]} == {"seconds"}
        rows, cost = estimates[-2:]
        assert rows.estimated == optimized.plan.estimated_rows
        assert rows.actual == len(execution.rows)
        # The root's subtree spend is the whole run's ledger total.
        assert cost.estimated == optimized.plan.estimated_cost
        assert cost.actual == pytest.approx(execution.cost.total)

    def test_capture_is_charge_free(self, tiny_catalog, tiny_server):
        """Recording node estimates must not add foreign calls or charges
        compared to the estimator-only path (invariant 14 again)."""
        query = MultiJoinQuery(
            relations=("student",),
            text_predicates=(TextJoinPredicate("student.name", "author"),),
            text_source="m",
        )
        context = JoinContext(tiny_catalog, TextClient(tiny_server))
        estimator = PlanEstimator(query, context)
        optimized = optimize_multijoin(query, estimator, space="extended")

        first = JoinContext(tiny_catalog, TextClient(tiny_server))
        second = JoinContext(tiny_catalog, TextClient(tiny_server))
        one = execute_plan(optimized.plan, query, first)
        two = execute_plan(optimized.plan, query, second)
        assert one.cost.total == two.cost.total
        assert one.estimates == two.estimates
