"""Unit tests for Row."""

import pytest

from repro.errors import SchemaError
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.relational.types import DataType


@pytest.fixture
def schema():
    return Schema.of(
        ("s.name", DataType.VARCHAR),
        ("s.year", DataType.INTEGER),
    )


def test_length_mismatch_rejected(schema):
    with pytest.raises(SchemaError):
        Row(schema, ["only-one"])


def test_lookup_by_qualified_and_bare(schema):
    row = Row(schema, ["kao", 3])
    assert row["s.name"] == "kao"
    assert row["year"] == 3


def test_equality_requires_schema_and_values(schema):
    a = Row(schema, ["kao", 3])
    b = Row(schema, ["kao", 3])
    c = Row(schema, ["kao", 4])
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_iteration_and_len(schema):
    row = Row(schema, ["kao", 3])
    assert list(row) == ["kao", 3]
    assert len(row) == 2
