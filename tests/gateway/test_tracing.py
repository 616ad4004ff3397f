"""Unit tests for foreign-call tracing (spans, phases, summaries)."""

import pytest

from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.gateway.tracing import UNPHASED, CallTracer, format_trace


class TestCallTracer:
    def test_disabled_tracer_drops_spans(self):
        tracer = CallTracer(enabled=False)
        assert tracer.record("search", "x", 1, 2, 3.0) is None
        assert tracer.spans == []

    def test_phase_attribution_nests(self):
        tracer = CallTracer()
        assert tracer.current_phase == UNPHASED
        with tracer.phase("probe"):
            tracer.record("probe", "a", 0, 0, 1.0)
            with tracer.phase("TS"):
                assert tracer.current_phase == "TS"
                tracer.record("search", "b", 0, 0, 1.0)
            tracer.record("probe", "c", 0, 0, 1.0)
        assert [span.phase for span in tracer.spans] == ["probe", "TS", "probe"]

    def test_phase_stack_survives_exceptions(self):
        tracer = CallTracer()
        with pytest.raises(ValueError):
            with tracer.phase("TS"):
                raise ValueError("boom")
        assert tracer.current_phase == UNPHASED

    def test_hit_rate_and_summary(self):
        tracer = CallTracer()
        tracer.record("search", "a", 2, 10, 3.0)
        tracer.record("search", "a", 2, 10, 0.0, saved=3.0, cache_hit=True)
        tracer.record("retrieve", "d1", 1, 0, 4.0)
        summary = tracer.summary()
        assert summary["spans"] == 3
        assert summary["by_kind"]["search"] == 2
        assert summary["by_kind"]["retrieve"] == 1
        assert summary["cache_hits"] == 1
        assert summary["hit_rate"] == pytest.approx(1 / 3)
        assert summary["cost"] == pytest.approx(7.0)
        assert summary["seconds_saved"] == pytest.approx(3.0)

    def test_by_phase_aggregates(self):
        tracer = CallTracer()
        with tracer.phase("TS"):
            tracer.record("search", "a", 0, 0, 2.0)
            tracer.record("search", "b", 0, 0, 0.0, saved=2.0, cache_hit=True)
        entry = tracer.by_phase()["TS"]
        assert entry == {"calls": 2, "hits": 1, "cost": 2.0, "saved": 2.0}


class TestClientIntegration:
    def test_spans_record_searches_probes_and_retrievals(self, tiny_server):
        tracer = CallTracer()
        client = TextClient(tiny_server, tracer=tracer)
        client.search("TI='belief'")
        client.probe("TI='zzz'")
        client.retrieve("d1")
        assert [span.kind for span in tracer.spans] == [
            "search", "probe", "retrieve"
        ]
        assert tracer.spans[0].expression == "title='belief'"
        assert tracer.spans[0].cost > 0

    def test_trace_phase_labels_client_calls(self, tiny_server):
        tracer = CallTracer()
        client = TextClient(tiny_server, tracer=tracer)
        with client.trace_phase("scan"):
            client.search("TI='belief'")
        client.search("TI='systems'")
        assert tracer.spans[0].phase == "scan"
        assert tracer.spans[1].phase == UNPHASED

    def test_cache_hits_are_flagged(self, tiny_server):
        tracer = CallTracer()
        client = TextClient(tiny_server, cache=GatewayCache(), tracer=tracer)
        client.search("TI='belief'")
        client.search("TI='belief'")
        assert [span.cache_hit for span in tracer.spans] == [False, True]
        assert tracer.spans[1].cost == 0.0
        assert tracer.spans[1].saved == pytest.approx(tracer.spans[0].cost)

    def test_call_log_is_a_view_over_the_trace(self, tiny_server):
        """What ``call_log`` used to show is the search-kind spans."""
        client = TextClient(tiny_server, tracer=CallTracer())
        client.search("TI='belief'")
        client.retrieve("d1")
        search, retrieve = client.tracer.spans
        assert (search.kind, search.expression) == ("search", "title='belief'")
        assert (retrieve.kind, retrieve.expression) == ("retrieve", "d1")


class TestExecutionPhases:
    def test_ts_join_spans_carry_the_ts_phase(self, scenario):
        from repro.core.joinmethods import TupleSubstitution

        tracer = CallTracer()
        context = scenario.context(tracer=tracer)
        TupleSubstitution().execute(scenario.query("q3"), context)
        assert tracer.spans
        assert {span.phase for span in tracer.spans} == {"TS"}

    def test_probe_method_mixes_probe_and_ts_phases(self, scenario):
        from repro.core.joinmethods import ProbeTupleSubstitution

        query = scenario.query("q3")
        tracer = CallTracer()
        context = scenario.context(tracer=tracer)
        ProbeTupleSubstitution((query.join_columns[0],)).execute(query, context)
        phases = {span.phase for span in tracer.spans}
        assert phases == {"probe", "TS"}
        assert all(
            span.kind == "probe"
            for span in tracer.spans
            if span.phase == "probe"
        )

    def test_semijoin_rtp_uses_the_sj_batch_phase(self, scenario):
        from repro.core.joinmethods import SemiJoinRtp

        tracer = CallTracer()
        context = scenario.context(tracer=tracer)
        SemiJoinRtp().execute(scenario.query("q1"), context)
        assert "SJ-batch" in {span.phase for span in tracer.spans}


def test_format_trace_renders_summary_and_spans():
    tracer = CallTracer()
    with tracer.phase("TS"):
        tracer.record("search", "title='belief'", 2, 10, 3.0)
        tracer.record(
            "search", "title='belief'", 2, 10, 0.0, saved=3.0, cache_hit=True
        )
    text = format_trace(tracer)
    assert "2 foreign calls" in text
    assert "hit rate 50%" in text
    assert "[TS]" in text
    assert "HIT" in text
    assert "title='belief'" in text


def test_format_trace_elides_old_spans():
    tracer = CallTracer()
    for index in range(30):
        tracer.record("search", f"q{index}", 0, 0, 1.0)
    text = format_trace(tracer, limit=5)
    assert "25 earlier spans elided" in text
    assert "q29" in text
    assert "#4 " not in text
