"""Column datatypes for the mini RDBMS substrate.

The engine supports a deliberately small set of types — integers,
floats, fixed-point decimals (stored as floats, compared numerically),
strings, and dates (stored as ISO ``YYYY-MM-DD`` strings, which sort
correctly lexicographically).  Each type knows how to validate a Python
value, estimate its on-page size in bytes (used by the storage layer and
the PMV size accounting), and compare values.

The paper's interval conditions allow non-numeric attributes (Section
2.1: "R.a can be a non-numerical (e.g., string) attribute"), so ordering
must work uniformly across types; every type here defines a total order
over its domain.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import TypeMismatchError

__all__ = [
    "DataType",
    "TypeKind",
    "INTEGER",
    "BIGINT",
    "FLOAT",
    "TEXT",
    "DATE",
    "MINUS_INFINITY",
    "PLUS_INFINITY",
    "Infinity",
]


class TypeKind(enum.Enum):
    """Enumeration of supported column type kinds."""

    INTEGER = "integer"
    BIGINT = "bigint"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"


class Infinity:
    """Sentinel for unbounded interval endpoints.

    ``MINUS_INFINITY`` compares below every domain value and
    ``PLUS_INFINITY`` above, regardless of type.  Using dedicated
    sentinels (rather than ``float('inf')``) lets intervals over TEXT
    and DATE columns be unbounded too.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        if sign not in (-1, 1):
            raise ValueError("Infinity sign must be -1 or +1")
        self._sign = sign

    @property
    def sign(self) -> int:
        return self._sign

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, Infinity):
            return self._sign < other._sign
        return self._sign < 0

    def __le__(self, other: Any) -> bool:
        return self == other or self < other

    def __gt__(self, other: Any) -> bool:
        if isinstance(other, Infinity):
            return self._sign > other._sign
        return self._sign > 0

    def __ge__(self, other: Any) -> bool:
        return self == other or self > other

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Infinity) and other._sign == self._sign

    def __hash__(self) -> int:
        return hash(("Infinity", self._sign))

    def __repr__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"


MINUS_INFINITY = Infinity(-1)
PLUS_INFINITY = Infinity(1)


def _is_valid_date_string(value: str) -> bool:
    """Check the ISO ``YYYY-MM-DD`` shape without importing datetime.

    Dates are stored as strings; lexicographic order equals calendar
    order for this shape, which is all the engine needs.
    """
    if len(value) != 10 or value[4] != "-" or value[7] != "-":
        return False
    y, m, d = value[:4], value[5:7], value[8:10]
    if not (y.isdigit() and m.isdigit() and d.isdigit()):
        return False
    return 1 <= int(m) <= 12 and 1 <= int(d) <= 31


@dataclass(frozen=True)
class DataType:
    """A column datatype.

    Parameters
    ----------
    kind:
        Which of the supported type kinds this is.
    width:
        For TEXT, the declared maximum width used for size estimation;
        ignored for other kinds.
    """

    kind: TypeKind
    width: int = 0

    def validate(self, value: Any) -> Any:
        """Validate ``value`` against this type and return it.

        ``None`` is accepted everywhere (SQL NULL).  Raises
        :class:`TypeMismatchError` for values outside the domain.
        """
        if value is None:
            return None
        if self.kind in (TypeKind.INTEGER, TypeKind.BIGINT):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(
                    f"expected int for {self.kind.value}, got {type(value).__name__}"
                )
            return value
        if self.kind is TypeKind.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    f"expected number for float, got {type(value).__name__}"
                )
            if isinstance(value, float) and math.isnan(value):
                raise TypeMismatchError("NaN is not a valid float column value")
            return float(value)
        if self.kind is TypeKind.TEXT:
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"expected str for text, got {type(value).__name__}"
                )
            return value
        if self.kind is TypeKind.DATE:
            if not isinstance(value, str) or not _is_valid_date_string(value):
                raise TypeMismatchError(
                    f"expected 'YYYY-MM-DD' string for date, got {value!r}"
                )
            return value
        raise TypeMismatchError(f"unknown type kind {self.kind!r}")

    def byte_size(self, value: Any) -> int:
        """Estimated on-page size of ``value`` in bytes.

        The storage layer uses this to decide how many records fit on a
        page, and the PMV uses it for its UB (size upper bound)
        accounting.  NULL costs one byte (the null bitmap entry).
        """
        if value is None:
            return 1
        if self.kind is TypeKind.INTEGER:
            return 4
        if self.kind is TypeKind.BIGINT:
            return 8
        if self.kind is TypeKind.FLOAT:
            return 8
        if self.kind is TypeKind.DATE:
            return 10
        # TEXT: length bytes plus a 2-byte length header.
        return len(value) + 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is TypeKind.TEXT and self.width:
            return f"text({self.width})"
        return self.kind.value


INTEGER = DataType(TypeKind.INTEGER)
BIGINT = DataType(TypeKind.BIGINT)
FLOAT = DataType(TypeKind.FLOAT)
TEXT = DataType(TypeKind.TEXT, width=32)
DATE = DataType(TypeKind.DATE)
