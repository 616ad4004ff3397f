"""Unit tests for relational value types and coercion."""

import pytest

from repro.errors import TypeMismatchError
from repro.relational.types import DataType, coerce_value


class TestCoerceValue:
    def test_null_passes_through(self):
        for data_type in DataType:
            assert coerce_value(None, data_type) is None

    def test_varchar(self):
        assert coerce_value("x", DataType.VARCHAR) == "x"

    def test_integer(self):
        assert coerce_value(7, DataType.INTEGER) == 7

    def test_int_widens_to_float(self):
        value = coerce_value(7, DataType.FLOAT)
        assert value == 7.0 and isinstance(value, float)

    def test_bool_rejected_for_integer(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, DataType.INTEGER)

    def test_bool_rejected_for_float(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(False, DataType.FLOAT)

    def test_string_rejected_for_integer(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("7", DataType.INTEGER)

    def test_number_rejected_for_varchar(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(7, DataType.VARCHAR)

    def test_boolean_accepts_bool(self):
        assert coerce_value(True, DataType.BOOLEAN) is True
