"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.joinmethods.base import JoinContext
from repro.gateway.client import TextClient
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.types import DataType
from repro.textsys.documents import DocumentStore
from repro.textsys.server import BooleanTextServer
from repro.workload import build_default_scenario


@pytest.fixture(scope="session")
def scenario():
    """The canonical (seeded) Table-2 scenario, shared across tests."""
    return build_default_scenario(seed=7)


def scenario_context(scenario, batch_limit=None) -> JoinContext:
    """A fresh context on the scenario's corpus (same store and index)
    whose server publishes ``batch_limit``; ``None`` is plain Mercury."""
    server = BooleanTextServer(
        scenario.server.store,
        index=scenario.server.index,
        batch_limit=batch_limit,
    )
    return JoinContext(
        scenario.catalog, TextClient(server, constants=scenario.constants)
    )


@contextmanager
def counting_schemas(monkeypatch):
    """Yield a list that collects every ``Schema`` constructed inside
    the block (the count guards: one per operator, not one per row)."""
    built = []
    original = Schema.__init__

    def counting_init(self, columns):
        built.append(self)
        original(self, columns)

    with monkeypatch.context() as patch:
        patch.setattr(Schema, "__init__", counting_init)
        yield built


@pytest.fixture
def tiny_store() -> DocumentStore:
    """Four bibliographic documents with known term placement."""
    store = DocumentStore(
        ["title", "author", "abstract", "year"],
        short_fields=["title", "author", "year"],
    )
    store.add_record(
        "d1",
        title="Belief update in AI systems",
        author="radhika garcia",
        abstract="We discuss belief revision and update operators",
        year="may 1993",
    )
    store.add_record(
        "d2",
        title="Text retrieval systems",
        author="gravano",
        abstract="Inverted index construction for information filtering",
        year="june 1994",
    )
    store.add_record(
        "d3",
        title="Belief update revisited",
        author="smith jones",
        abstract="More on belief update",
        year="may 1993",
    )
    store.add_record(
        "d4",
        title="Unrelated systems work",
        author="nobody",
        abstract="information retrieval filtering pipelines",
        year="april 1990",
    )
    return store


@pytest.fixture
def tiny_server(tiny_store) -> BooleanTextServer:
    return BooleanTextServer(tiny_store)


@pytest.fixture
def tiny_catalog() -> Catalog:
    """A small student table joined against :func:`tiny_store`."""
    catalog = Catalog()
    student = catalog.create_table(
        "student",
        Schema.of(
            ("name", DataType.VARCHAR),
            ("area", DataType.VARCHAR),
            ("year", DataType.INTEGER),
            ("advisor", DataType.VARCHAR),
        ),
    )
    student.insert_many(
        [
            ["radhika", "AI", 4, "garcia"],
            ["gravano", "AI", 5, "garcia"],
            ["kao", "databases", 2, "garcia"],
            ["smith", "AI", 4, "ullman"],
            ["jones", "theory", 6, "ullman"],
        ]
    )
    return catalog


@pytest.fixture
def tiny_context(tiny_catalog, tiny_server) -> JoinContext:
    return JoinContext(tiny_catalog, TextClient(tiny_server))
