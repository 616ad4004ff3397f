"""Unit tests for Column and Schema (name resolution rules)."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Column, Schema
from repro.relational.types import DataType


class TestColumn:
    def test_bare_column(self):
        column = Column("name", DataType.VARCHAR)
        assert column.qualifier is None
        assert column.bare_name == "name"

    def test_qualified_column(self):
        column = Column("student.name", DataType.VARCHAR)
        assert column.qualifier == "student"
        assert column.bare_name == "name"

    def test_qualify(self):
        column = Column("name", DataType.VARCHAR).qualified("student")
        assert column.name == "student.name"

    def test_requalify_replaces(self):
        column = Column("student.name", DataType.VARCHAR).qualified("s2")
        assert column.name == "s2.name"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.VARCHAR)

    def test_double_qualifier_rejected(self):
        with pytest.raises(SchemaError):
            Column("a.b.c", DataType.VARCHAR)


class TestSchema:
    def setup_method(self):
        self.schema = Schema.of(
            ("student.name", DataType.VARCHAR),
            ("student.year", DataType.INTEGER),
            ("faculty.name", DataType.VARCHAR),
        )

    def test_exact_lookup(self):
        assert self.schema.index_of("student.year") == 1

    def test_unique_bare_lookup(self):
        assert self.schema.index_of("year") == 1

    def test_ambiguous_bare_lookup_raises(self):
        with pytest.raises(SchemaError, match="ambiguous"):
            self.schema.index_of("name")

    def test_unknown_raises(self):
        with pytest.raises(SchemaError, match="unknown"):
            self.schema.index_of("missing")

    def test_has_column(self):
        assert self.schema.has_column("student.name")
        assert self.schema.has_column("year")
        assert not self.schema.has_column("name")  # ambiguous
        assert not self.schema.has_column("zzz")

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.of(("a", DataType.VARCHAR), ("a", DataType.INTEGER))

    def test_concat(self):
        other = Schema.of(("x", DataType.FLOAT))
        combined = self.schema.concat(other)
        assert len(combined) == 4
        assert combined.index_of("x") == 3

    def test_qualified(self):
        schema = Schema.of(("a", DataType.VARCHAR)).qualified("t")
        assert schema.names() == ["t.a"]

    def test_equality_and_hash(self):
        same = Schema.of(
            ("student.name", DataType.VARCHAR),
            ("student.year", DataType.INTEGER),
            ("faculty.name", DataType.VARCHAR),
        )
        assert same == self.schema
        assert hash(same) == hash(self.schema)

    def test_iteration(self):
        assert [c.bare_name for c in self.schema] == ["name", "year", "name"]
