"""The sparse rational kernel, the oracle that tests/conftest.py and
tests/test_nullspace.py compare the package's kernels with.

QMatrix is a sparse rational matrix; null_dense clears each row of its
denominators (_clear_row) and runs nullspace._IntEchelon on the integer
rows, which gives the kernel in the package's form: free-column order,
each vector's first nonzero coordinate 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple

from traceforge.nullspace import NullBasis, _IntEchelon

Rational = Fraction


class _QMatrixFields(NamedTuple):
    rows: tuple[Mapping[int, Rational], ...]
    ncols: int


class QMatrix(_QMatrixFields):
    """Sparse rational matrix: one dict per row mapping column to value.
    Every construction, _replace included, checks that each column is in
    range(ncols)."""

    __slots__ = ()

    def __new__(cls, rows: tuple[Mapping[int, Rational], ...], ncols: int) -> "QMatrix":
        for r in rows:
            for c in r:
                if not (0 <= c < ncols):
                    raise ValueError(f"column {c} out of range")
        return super().__new__(cls, rows, ncols)

    @classmethod
    def _make(cls, iterable) -> "QMatrix":
        return cls(*iterable)


def _clear_row(row: Mapping[int, Rational]) -> dict[int, int]:
    den = 1
    for v in row.values():
        f = Fraction(v)
        den = den * f.denominator // gcd(den, f.denominator)
    out = {}
    for c, v in row.items():
        f = Fraction(v)
        n = f.numerator * (den // f.denominator)
        if n:
            out[c] = n
    return out


def null_dense(A: QMatrix) -> NullBasis:
    """Exact kernel of a QMatrix via fraction-free elimination."""
    ech = _IntEchelon(A.ncols)
    for row in A.rows:
        ech.add_row(_clear_row(row))
    return ech.kernel()
