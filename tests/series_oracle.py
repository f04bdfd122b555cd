"""Truncated two-variable power series in Fraction arithmetic, the oracle
that tests/test_glcat.py compares glcat.hilbert_KG0 with.

glcat.hilbert_KG0 builds its integer table by dividing by 1 - t^a u^b in
place; this is the product of the truncated geometric series it replaced,
one Fraction per (p, q) in a dict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction


class BiSeries:
    """A power series in two variables truncated at total degree D.

    coeffs maps (p, q) with p + q <= D to nonzero Rational coefficients.
    """

    __slots__ = ("D", "coeffs")

    def __init__(self, D: int, coeffs: Mapping[tuple[int, int], Rational] | None = None):
        if D < 0:
            raise ValueError("truncation bound must be nonnegative")
        self.D = D
        self.coeffs: dict[tuple[int, int], Rational] = {}
        if coeffs:
            for (p, q), c in coeffs.items():
                if p < 0 or q < 0:
                    raise ValueError("negative series exponent")
                if p + q > D:
                    raise ValueError(f"series term ({p},{q}) exceeds bound {D}")
                if c:
                    self.coeffs[(p, q)] = Fraction(c)

    @classmethod
    def one(cls, D: int) -> "BiSeries":
        return cls(D, {(0, 0): Fraction(1)})

    def coeff(self, p: int, q: int) -> Rational:
        return self.coeffs.get((p, q), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.D == other.D and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"BiSeries(D={self.D}, {len(self.coeffs)} terms)"


def series_mul(a: BiSeries, b: BiSeries) -> BiSeries:
    """Product with truncation; both operands must share the same bound."""
    if a.D != b.D:
        raise ValueError("truncation bound mismatch")
    D = a.D
    out = BiSeries(D)
    acc = out.coeffs
    for (pa, qa), ca in a.coeffs.items():
        for (pb, qb), cb in b.coeffs.items():
            p, q = pa + pb, qa + qb
            if p + q > D:
                continue
            s = acc.get((p, q), Fraction(0)) + ca * cb
            if s:
                acc[(p, q)] = s
            else:
                acc.pop((p, q), None)
    return out


def series_inv_geom(p: int, q: int, D: int) -> BiSeries:
    """The series 1/(1 - t^p u^q) truncated at total degree D.

    (p, q) = (0, 0) is rejected, the geometric series would not converge.
    """
    if p < 0 or q < 0:
        raise ValueError("negative exponent")
    if p == 0 and q == 0:
        raise ValueError("series_inv_geom undefined at (0, 0)")
    out = BiSeries(D)
    k = 0
    while k * (p + q) <= D:
        out.coeffs[(k * p, k * q)] = Fraction(1)
        k += 1
    return out
