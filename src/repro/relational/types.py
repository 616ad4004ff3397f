"""Value types for the relational engine.

The engine supports a deliberately small set of SQL-ish scalar types —
enough to model the paper's university database (``student``, ``faculty``,
``project``) and the relational side of text-join queries.  ``NULL`` is
represented by Python ``None`` and uses three-valued-logic semantics in
comparisons (any comparison with ``NULL`` is unknown, which filters treat
as false).
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.errors import TypeMismatchError

__all__ = ["DataType", "coerce_value"]


class DataType(enum.Enum):
    """Scalar column types supported by the relational engine."""

    VARCHAR = "varchar"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


def coerce_value(value: Any, data_type: DataType) -> Optional[Any]:
    """Coerce ``value`` to the Python representation of ``data_type``.

    ``None`` passes through unchanged (SQL NULL).  Integers widen to floats
    for FLOAT columns; everything else must already have the right type.
    Raises :class:`TypeMismatchError` on failure.
    """
    if value is None:
        return None
    if data_type is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
    elif data_type is DataType.INTEGER:
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not an INTEGER")
        if isinstance(value, int):
            return value
    elif data_type is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"boolean {value!r} is not a FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
    elif data_type is DataType.VARCHAR:
        if isinstance(value, str):
            return value
    raise TypeMismatchError(
        f"value {value!r} (Python {type(value).__name__}) does not fit "
        f"column type {data_type.value}"
    )
