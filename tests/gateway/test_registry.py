"""The backend registry: per-backend charge attribution (invariant 15)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GatewayError
from repro.gateway.costs import PAPER_CONSTANTS, VECTOR_CONSTANTS, CostConstants
from repro.gateway.registry import BackendRegistry
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.textsys.vector import VectorQuery
from repro.textsys.vectorserver import VectorTextServer


def make_store() -> DocumentStore:
    store = DocumentStore(
        ["title", "abstract"], short_fields=["title", "abstract"]
    )
    store.add_record("d1", title="belief update", abstract="belief revision")
    store.add_record("d2", title="query plans", abstract="join query plans")
    store.add_record("d3", title="text joins", abstract="ranked text search")
    return store


@pytest.fixture
def registry() -> BackendRegistry:
    store = make_store()
    registry = BackendRegistry()
    registry.register("mercury", BooleanTextServer(store))
    registry.register("vsim", VectorTextServer(store, "abstract"))
    return registry


class TestRegistration:
    def test_constants_default_by_source_kind(self, registry):
        assert registry.binding("mercury").constants == PAPER_CONSTANTS
        assert registry.binding("vsim").constants == VECTOR_CONSTANTS
        assert registry.binding("mercury").source_kind == "boolean"
        assert registry.binding("vsim").source_kind == "vector"

    def test_explicit_constants_override_the_default(self):
        registry = BackendRegistry()
        custom = CostConstants(invocation=9.0)
        binding = registry.register(
            "slow", BooleanTextServer(make_store()), custom
        )
        assert binding.constants is custom
        assert binding.ledger.constants is custom

    def test_duplicate_name_rejected(self, registry):
        with pytest.raises(GatewayError, match="already registered"):
            registry.register("mercury", BooleanTextServer(make_store()))

    def test_empty_name_rejected(self):
        with pytest.raises(GatewayError, match="non-empty"):
            BackendRegistry().register("", BooleanTextServer(make_store()))

    def test_unknown_backend_lists_the_registered_ones(self, registry):
        with pytest.raises(GatewayError, match="mercury"):
            registry.binding("nope")
        with pytest.raises(GatewayError):
            registry.client("nope")

    def test_container_protocol(self, registry):
        assert len(registry) == 2
        assert "mercury" in registry and "vsim" in registry
        assert "nope" not in registry
        assert registry.names() == ["mercury", "vsim"]
        assert [binding.name for binding in registry] == ["mercury", "vsim"]


class TestAttribution:
    def test_client_charges_only_its_own_ledger(self, registry):
        client = registry.client("vsim")
        client.search(VectorQuery("abstract", ("belief",), top_k=2))
        assert registry.binding("vsim").ledger.total > 0.0
        assert registry.binding("mercury").ledger.total == 0.0

    def test_total_is_the_sum_of_per_backend_totals(self, registry):
        registry.client("mercury").search("TI='belief'")
        registry.client("vsim").search(
            VectorQuery("abstract", ("query",), top_k=None)
        )
        per_backend = [binding.ledger.total for binding in registry]
        assert all(total > 0.0 for total in per_backend)
        assert registry.total() == pytest.approx(sum(per_backend))

    def test_report_carries_kind_and_accounting(self, registry):
        registry.client("vsim").search(
            VectorQuery("abstract", ("belief",), top_k=1)
        )
        report = registry.report()
        assert set(report) == {"mercury", "vsim"}
        assert report["vsim"]["source_kind"] == "vector"
        assert report["vsim"]["searches"] == 1
        assert report["mercury"]["searches"] == 0
        assert report["vsim"]["total"] == pytest.approx(
            registry.binding("vsim").ledger.total
        )

    def test_reset_clears_every_ledger(self, registry):
        registry.client("mercury").search("TI='belief'")
        registry.client("vsim").search(
            VectorQuery("abstract", ("belief",), top_k=1)
        )
        assert registry.total() > 0.0
        registry.reset()
        assert registry.total() == 0.0
        assert registry.binding("mercury").ledger.report()["searches"] == 0

    @settings(max_examples=25, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["mercury", "vsim"]),
                st.sampled_from(["belief", "query", "text", "plans"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_interleaving_never_bleeds_across_ledgers(self, operations):
        """Invariant 15, hypothesis-tested: an interleaved stream of
        searches across two backends charges each ledger exactly what a
        per-backend serial replay would."""

        def run(assignments):
            store = make_store()
            registry = BackendRegistry()
            registry.register("mercury", BooleanTextServer(store))
            registry.register("vsim", VectorTextServer(store, "abstract"))
            clients = {name: registry.client(name) for name in registry.names()}
            for name, term in assignments:
                if name == "mercury":
                    clients[name].search(f"AB='{term}'")
                else:
                    clients[name].search(
                        VectorQuery("abstract", (term,), top_k=2)
                    )
            return registry

        interleaved = run(operations)
        replayed = run(
            [op for op in operations if op[0] == "mercury"]
            + [op for op in operations if op[0] == "vsim"]
        )
        for name in ("mercury", "vsim"):
            assert (
                interleaved.binding(name).ledger.report()
                == replayed.binding(name).ledger.report()
            )
        assert interleaved.total() == pytest.approx(replayed.total())
