"""Applicability of RTP-family methods when fields are hidden from the
short form — "only two methods are universally applicable: TS and P+TS"
(Section 7.2)."""

import pytest

from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import (
    JoinContext,
    ProbeRtp,
    ProbeTupleSubstitution,
    RelationalTextProcessing,
    SemiJoinRtp,
    SingleColumnSemiJoinRtp,
    TupleSubstitution,
)
from repro.core.optimizer.single_join import enumerate_method_choices
from repro.core.query import TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import JoinMethodError
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer

from tests.core.test_method_space import check_method_space


@pytest.fixture
def hidden_author_context():
    """The author field is searchable but NOT returned in the short form."""
    catalog = Catalog()
    table = catalog.create_table(
        "r", Schema.of(("name", DataType.VARCHAR), ("topic", DataType.VARCHAR))
    )
    table.insert_many([["ada", "joins"], ["bob", "joins"], ["cyd", "sorting"]])
    store = DocumentStore(
        ["title", "author"], short_fields=["title"]  # author hidden
    )
    store.add_record("d1", title="joins paper", author="ada")
    store.add_record("d2", title="sorting paper", author="cyd")
    server = BooleanTextServer(store)
    return JoinContext(catalog, TextClient(server))


def query():
    return TextJoinQuery(
        relation="r",
        join_predicates=(
            TextJoinPredicate("r.name", "author"),
            TextJoinPredicate("r.topic", "title"),
        ),
        text_selections=(TextSelection("paper", "title"),),
    )


class TestApplicability:
    def test_ts_and_probing_ts_still_work(self, hidden_author_context):
        q = query()
        ts = TupleSubstitution().execute(q, hidden_author_context)
        p_ts = ProbeTupleSubstitution(("r.topic",)).execute(
            q, hidden_author_context
        )
        assert ts.result_keys() == p_ts.result_keys()
        assert len(ts.result_keys()) == 2  # ada/joins/d1, cyd/sorting/d2

    def test_rtp_family_not_applicable(self, hidden_author_context):
        q = query()
        for method in (
            RelationalTextProcessing(),
            SemiJoinRtp(),
            SingleColumnSemiJoinRtp("r.name"),
        ):
            assert not method.applicable(q, hidden_author_context)
            with pytest.raises(JoinMethodError):
                method.execute(q, hidden_author_context)

    def test_p_rtp_applicable_only_when_remaining_fields_visible(
        self, hidden_author_context
    ):
        q = query()
        # Probe on name -> remaining predicate is on the visible title.
        assert ProbeRtp(("r.name",)).applicable(q, hidden_author_context)
        # Probe on topic -> remaining predicate is on the hidden author.
        assert not ProbeRtp(("r.topic",)).applicable(q, hidden_author_context)

    def test_applicable_p_rtp_is_correct(self, hidden_author_context):
        q = query()
        p_rtp = ProbeRtp(("r.name",)).execute(q, hidden_author_context)
        ts = TupleSubstitution().execute(q, hidden_author_context)
        assert p_rtp.result_keys() == ts.result_keys()


class TestOptimizerRespectsVisibility:
    def test_rtp_family_absent_from_choices(self, hidden_author_context):
        q = query()
        inputs = build_cost_inputs(q, hidden_author_context)
        names = {
            choice.estimate.method
            for choice in enumerate_method_choices(q, inputs)
        }
        assert "RTP" not in names
        assert "SJ+RTP" not in names
        assert "TS" in names

    def test_applicable_p_rtp_is_enumerated(self, hidden_author_context):
        """P+RTP string-matches only the *non-probe* predicates, so
        probing on the hidden author leaves a visible remainder:
        P(name)+RTP applies, is correct and must be offered (plan time
        used to gate every P+RTP on *all* fields); P(topic)+RTP must not."""
        context = hidden_author_context

        def make_context():
            return JoinContext(context.catalog, TextClient(context.client.server))

        enumerated = check_method_space(query(), make_context)
        assert "P(name)+RTP" in enumerated
        assert "P(topic)+RTP" not in enumerated
        assert not {"RTP", "SJ+RTP"} & set(enumerated)

    def test_all_fields_visible_restores_choices(self, tiny_context):
        q = TextJoinQuery(
            relation="student",
            join_predicates=(TextJoinPredicate("student.name", "author"),),
            text_selections=(TextSelection("belief update", "title"),),
        )
        inputs = build_cost_inputs(q, tiny_context)
        names = {
            choice.estimate.method
            for choice in enumerate_method_choices(q, inputs)
        }
        assert {"RTP", "SJ+RTP", "TS"} <= names
