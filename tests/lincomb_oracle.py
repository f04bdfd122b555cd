"""A plain Fraction-dict reference for the arithmetic that polyring.LinComb
shares, the oracle that tests/test_polyring.py compares CommPoly with.

A polynomial here is a dict from exponent tuple to nonzero Fraction, and
every operation works one Fraction coefficient at a time, the form that
LinComb kept before its numerators moved over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Poly = dict[tuple[int, ...], Fraction]


def poly(terms: Mapping[tuple[int, ...], object]) -> Poly:
    return {m: Fraction(c) for m, c in terms.items() if c}


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, neg(b))


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: v * c for m, v in a.items()} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            s = out.get(m, Fraction(0)) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(a: Poly, n: int, nvars: int) -> Poly:
    out: Poly = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = mul(out, a)
    return out
