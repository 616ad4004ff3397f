"""Unit tests for Table and Catalog."""

import pytest

from repro.errors import CatalogError, SchemaError, TypeMismatchError
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import DataType


@pytest.fixture
def table():
    table = Table(
        "student",
        Schema.of(("name", DataType.VARCHAR), ("year", DataType.INTEGER)),
    )
    table.insert(["kao", 3])
    table.insert(["smith", None])
    table.insert(["kao", 5])
    return table


class TestTable:
    def test_scan_yields_qualified_rows(self, table):
        rows = list(table.scan())
        assert len(rows) == 3
        assert rows[0]["student.name"] == "kao"
        assert rows[0].schema.names() == ["student.name", "student.year"]

    def test_insert_type_checked(self, table):
        with pytest.raises(TypeMismatchError):
            table.insert(["x", "not-an-int"])

    def test_insert_arity_checked(self, table):
        with pytest.raises(SchemaError):
            table.insert(["too-few"])

    def test_null_round_trip(self, table):
        assert list(table.scan())[1]["student.year"] is None

    def test_column_values(self, table):
        assert table.column_values("name") == ["kao", "smith", "kao"]
        assert table.column_values("student.name") == ["kao", "smith", "kao"]

    def test_qualified_schema_rejects_foreign_qualifier(self):
        with pytest.raises(SchemaError):
            Table("a", Schema.of(("b.x", DataType.VARCHAR)))

    def test_accepts_own_qualifier(self):
        table = Table("a", Schema.of(("a.x", DataType.VARCHAR)))
        assert table.schema.names() == ["a.x"]


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        table = catalog.create_table("t", Schema.of(("x", DataType.INTEGER)))
        assert catalog.table("t") is table
        assert "t" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("x", DataType.INTEGER)))
        with pytest.raises(CatalogError):
            catalog.create_table("t", Schema.of(("y", DataType.INTEGER)))

    def test_missing_lookup_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")
