"""Unit tests for each foreign-join method on the tiny fixture.

Expected join on the tiny corpus for the Q1-shaped query (AI students x
'belief update' titles, name in author): radhika↔d1 and smith↔d3.
"""

import pytest

from repro.core.joinmethods import (
    ProbeRtp,
    ProbeSemiJoin,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoin,
    SemiJoinRtp,
    TupleSubstitution,
    batch_conjuncts,
)
from repro.core.query import (
    ResultShape,
    TextJoinPredicate,
    TextJoinQuery,
    TextSelection,
)
from repro.errors import JoinMethodError, PlanError
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.textsys.query import TermQuery


def q1_query(**overrides):
    base = dict(
        relation="student",
        join_predicates=(TextJoinPredicate("student.name", "author"),),
        text_selections=(TextSelection("belief update", "title"),),
        relation_predicate=Comparison("=", ColumnRef("student.area"), Literal("AI")),
    )
    base.update(overrides)
    return TextJoinQuery(**base)


def q4_query(**overrides):
    base = dict(
        relation="student",
        join_predicates=(
            TextJoinPredicate("student.advisor", "author"),
            TextJoinPredicate("student.name", "author"),
        ),
    )
    base.update(overrides)
    return TextJoinQuery(**base)


EXPECTED_Q1 = {
    (("radhika", "AI", 4, "garcia"), "d1"),
    (("smith", "AI", 4, "ullman"), "d3"),
}


class TestTupleSubstitution:
    def test_results(self, tiny_context):
        execution = TupleSubstitution().execute(q1_query(), tiny_context)
        assert execution.result_keys() == EXPECTED_Q1

    def test_one_search_per_distinct_tuple(self, tiny_context):
        TupleSubstitution().execute(q1_query(), tiny_context)
        # 3 AI students with distinct names -> 3 searches.
        assert tiny_context.client.ledger.searches == 3

    def test_naive_variant_equivalent(self, tiny_context):
        distinct = TupleSubstitution(True).execute(q1_query(), tiny_context)
        naive = TupleSubstitution(False).execute(q1_query(), tiny_context)
        assert distinct.result_keys() == naive.result_keys()

    def test_universally_applicable(self, tiny_context):
        assert TupleSubstitution().applicable(q1_query(), tiny_context)
        assert TupleSubstitution().applicable(q4_query(), tiny_context)


class TestRtp:
    def test_results(self, tiny_context):
        execution = RelationalTextProcessing().execute(q1_query(), tiny_context)
        assert execution.result_keys() == EXPECTED_Q1

    def test_single_invocation(self, tiny_context):
        RelationalTextProcessing().execute(q1_query(), tiny_context)
        assert tiny_context.client.ledger.searches == 1

    def test_requires_selections(self, tiny_context):
        method = RelationalTextProcessing()
        assert not method.applicable(q4_query(), tiny_context)
        with pytest.raises(JoinMethodError):
            method.execute(q4_query(), tiny_context)

    def test_rtp_charge_proportional_to_docs_times_tuples(self, tiny_context):
        RelationalTextProcessing().execute(q1_query(), tiny_context)
        # 2 'belief update' docs x 3 AI students.
        assert tiny_context.client.ledger.rtp_documents == 2 * 3

    def test_match_phase_tokenizes_each_value_and_field_once(
        self, tiny_context, tiny_store, monkeypatch
    ):
        """D documents x R rows x k predicates costs at most k*(D + R)
        tokenizations, not two per candidate pair: what is constant for
        a row or a document is computed once per call."""
        import repro.core.joinmethods.base as base
        import repro.core.textmatch as textmatch
        from repro.textsys.analysis import tokenize

        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(base, "tokenize", counting_tokenize)
        monkeypatch.setattr(textmatch, "tokenize", counting_tokenize)
        documents = list(tiny_store)
        rows = list(tiny_context.catalog.table("student").scan())
        predicates = q4_query().join_predicates
        pairs = base.rtp_match_pairs(tiny_context, documents, rows, predicates)
        assert {pair.key() for pair in pairs} == {
            (("radhika", "AI", 4, "garcia"), "d1")
        }
        assert tiny_context.client.ledger.rtp_documents == 4 * 5
        assert len(calls) <= len(predicates) * (len(documents) + len(rows))


class TestSemiJoin:
    def test_docids_only(self, tiny_context):
        query = q1_query(shape=ResultShape.DOCIDS)
        execution = SemiJoin().execute(query, tiny_context)
        assert set(execution.docids) == {"d1", "d3"}

    def test_not_applicable_to_pairs(self, tiny_context):
        assert not SemiJoin().applicable(q1_query(), tiny_context)

    def test_single_batched_invocation(self, tiny_context):
        SemiJoin().execute(q1_query(shape=ResultShape.DOCIDS), tiny_context)
        assert tiny_context.client.ledger.searches == 1

    def test_sj_rtp_full_join(self, tiny_context):
        execution = SemiJoinRtp().execute(q1_query(), tiny_context)
        assert execution.result_keys() == EXPECTED_Q1

    def test_sj_rtp_without_selections(self, tiny_context):
        """SJ+RTP works even with no text selections (unlike RTP)."""
        execution = SemiJoinRtp().execute(q4_query(), tiny_context)
        # radhika's advisor garcia co-authors d1 with radhika.
        assert {key[1] for key in execution.result_keys()} == {"d1"}


class TestBatchConjuncts:
    def conjuncts(self, n):
        return [TermQuery("author", f"name{i}") for i in range(n)]

    def test_single_batch(self):
        batches = batch_conjuncts(self.conjuncts(5), 0, 70)
        assert len(batches) == 1

    def test_splits_on_capacity(self):
        batches = batch_conjuncts(self.conjuncts(10), 0, 4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_selection_terms_reduce_capacity(self):
        batches = batch_conjuncts(self.conjuncts(10), 2, 4)
        assert [len(b) for b in batches] == [2, 2, 2, 2, 2]

    def test_selection_fills_limit_raises(self):
        with pytest.raises(JoinMethodError):
            batch_conjuncts(self.conjuncts(1), 70, 70)

    def test_oversized_conjunct_raises(self):
        from repro.textsys.query import and_all

        big = and_all([TermQuery("author", f"w{i}") for i in range(5)])
        with pytest.raises(JoinMethodError):
            batch_conjuncts([big], 0, 4)


class TestProbeTupleSubstitution:
    def test_results_match_ts(self, tiny_context):
        query = q4_query()
        p_ts = ProbeTupleSubstitution(("student.advisor",)).execute(
            query, tiny_context
        )
        ts = TupleSubstitution().execute(query, tiny_context)
        assert p_ts.result_keys() == ts.result_keys()

    def test_probe_columns_must_be_join_columns(self, tiny_context):
        method = ProbeTupleSubstitution(("student.area",))
        assert not method.applicable(q4_query(), tiny_context)

    def test_probe_columns_must_be_nonempty(self, tiny_context):
        assert not ProbeTupleSubstitution(()).applicable(q4_query(), tiny_context)

    def test_failed_probe_prunes_group(self, tiny_context):
        """Students of 'ullman' never probe twice: one probe covers both."""
        query = q4_query()
        ProbeTupleSubstitution(
            ("student.advisor",), probe_first=True
        ).execute(query, tiny_context)
        # probe-first: 2 advisor probes (garcia: success, ullman: fail);
        # garcia has 3 students -> 3 full searches; ullman's 2 pruned.
        assert tiny_context.client.ledger.searches == 2 + 3

    def test_paper_order_full_query_first(self, tiny_context):
        query = q4_query()
        ProbeTupleSubstitution(
            ("student.advisor",), probe_first=False
        ).execute(query, tiny_context)
        # full-first: garcia students send 3 fulls (first succeeds -> probe
        # cached success); ullman: first student full fails -> probe fails
        # -> second student pruned.  Total = 3 + 1 + 1 probe = 5.
        assert tiny_context.client.ledger.searches == 5


class TestProbeRtp:
    def test_results_match_ts(self, tiny_context):
        query = q4_query()
        p_rtp = ProbeRtp(("student.advisor",)).execute(query, tiny_context)
        ts = TupleSubstitution().execute(query, tiny_context)
        assert p_rtp.result_keys() == ts.result_keys()

    def test_one_probe_per_group(self, tiny_context):
        ProbeRtp(("student.advisor",)).execute(q4_query(), tiny_context)
        assert tiny_context.client.ledger.searches == 2  # garcia, ullman

    def test_fetch_cap_validated(self, tiny_context):
        with pytest.raises(PlanError):
            ProbeRtp(("student.advisor",), fetch_cap=0)

    def test_fetch_cap_triggers(self, tiny_context):
        # Probing on name fetches one document per student; the second
        # successful probe pushes the total past the cap of 1.
        method = ProbeRtp(("student.name",), fetch_cap=1)
        with pytest.raises(JoinMethodError, match="cap"):
            method.execute(q4_query(), tiny_context)

    def test_probe_covering_all_columns_needs_no_rtp_filter(self, tiny_context):
        query = q4_query()
        full = ProbeRtp(("student.advisor", "student.name")).execute(
            query, tiny_context
        )
        ts = TupleSubstitution().execute(query, tiny_context)
        assert full.result_keys() == ts.result_keys()


class TestProbeSemiJoin:
    def test_exact_semijoin_with_all_columns(self, tiny_context):
        query = q4_query(shape=ResultShape.TUPLES)
        probe = ProbeSemiJoin().execute(query, tiny_context)
        ts = TupleSubstitution().execute(query, tiny_context)
        assert probe.result_keys() == ts.result_keys()

    def test_reducer_is_sound_overapproximation(self, tiny_context):
        query = q4_query(shape=ResultShape.TUPLES)
        reduced = ProbeSemiJoin(("student.advisor",)).execute(query, tiny_context)
        exact = TupleSubstitution().execute(query, tiny_context)
        assert exact.result_keys() <= reduced.result_keys()

    def test_only_tuples_shape(self, tiny_context):
        assert not ProbeSemiJoin().applicable(q4_query(), tiny_context)

    def test_is_exact_for(self):
        query = q4_query(shape=ResultShape.TUPLES)
        assert ProbeSemiJoin().is_exact_for(query)
        assert ProbeSemiJoin(
            ("student.advisor", "student.name")
        ).is_exact_for(query)
        assert not ProbeSemiJoin(("student.advisor",)).is_exact_for(query)


class TestNullHandling:
    def test_null_join_values_never_join_or_search(self, tiny_context):
        table = tiny_context.catalog.table("student")
        table.insert([None, "AI", 4, "garcia"])
        query = q1_query()
        execution = TupleSubstitution().execute(query, tiny_context)
        assert execution.result_keys() == EXPECTED_Q1
        # Only the 3 non-NULL AI names were searched.
        assert tiny_context.client.ledger.searches == 3


class TestLongForm:
    def test_long_form_retrieves_distinct_documents(self, tiny_context):
        query = q1_query(long_form=True)
        execution = TupleSubstitution().execute(query, tiny_context)
        assert tiny_context.client.ledger.long_documents == 2
        for pair in execution.pairs:
            assert "abstract" in pair.document.fields

    def test_short_form_skips_retrieval(self, tiny_context):
        TupleSubstitution().execute(q1_query(long_form=False), tiny_context)
        assert tiny_context.client.ledger.long_documents == 0


class TestGroupedProbeRefinement:
    """Section 3.3: with the relation grouped on the probing columns, a
    probe is sent only when another substitution shares the probe key."""

    def _grouped_world(self, tiny_context):
        # Add a second AI student advised by 'nobody' so one fail probe
        # key is a singleton and another (ullman's) is shared.
        table = tiny_context.catalog.table("student")
        table.insert(["pham", "AI", 4, "nobody"])
        return tiny_context

    def test_singleton_fail_groups_send_no_probe(self, tiny_context):
        context = self._grouped_world(tiny_context)
        query = q4_query()
        refined = ProbeTupleSubstitution(
            ("student.advisor",), probe_first=False
        ).execute(query, context)
        # garcia's 3 fulls (the first success caches the probe key);
        # ullman's first full fails, its probe fails and prunes the
        # second student; 'nobody' advises exactly one student, so its
        # failed full query is final and sends no probe: 3 + 2 + 1.
        assert refined.cost.searches == 6

    def test_shared_fail_groups_still_probe(self, tiny_context):
        context = self._grouped_world(tiny_context)
        query = q4_query()
        refined = ProbeTupleSubstitution(
            ("student.advisor",), probe_first=False
        ).execute(query, context)
        ts = TupleSubstitution().execute(query, context)
        assert refined.result_keys() == ts.result_keys()
