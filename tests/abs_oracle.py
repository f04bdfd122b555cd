"""The Fraction implementation of the generator algebra, the oracle that
tests/test_abspoly.py compares glcat.AbsPoly and its derivations with.

glcat.AbsPoly keeps integer numerators over one common denominator; this
is the plain form it replaced, one Fraction per monomial in a dict keyed
by sorted generator tuples, with the same checks on construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from traceforge.glcat import (
    ABS_GENS,
    NGENS,
    PARTS,
    AbsMonomial,
    _mono_grlex_key,
    gen_by_modj,
    mono_bidegree,
    mono_name,
)
from traceforge.polyring import Rational
from traceforge.tracelang import NotHomogeneous


class AbsPoly:
    """A polynomial in the abstract generators u_{i,j}, one Fraction per
    monomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[AbsMonomial, Rational] | None = None):
        self.terms: dict[AbsMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if any(g < 0 or g >= NGENS for g in m):
                    raise ValueError(f"bad generator id in monomial {m}")
                if tuple(sorted(m)) != tuple(m):
                    raise ValueError(f"monomial {m} is not sorted")
                if c:
                    self.terms[m] = Fraction(c)

    @classmethod
    def zero(cls) -> "AbsPoly":
        return cls()

    @classmethod
    def gen(cls, module: int, j: int) -> "AbsPoly":
        return cls({(gen_by_modj(module, j).gid,): Fraction(1)})

    @classmethod
    def monomial(cls, mono: Iterable[int], c: Rational = 1) -> "AbsPoly":
        return cls({tuple(sorted(mono)): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "AbsPoly":
        out = AbsPoly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other: "AbsPoly") -> "AbsPoly":
        out = AbsPoly()
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            s = out.terms.get(m, Fraction(0)) + c
            if s:
                out.terms[m] = s
            else:
                out.terms.pop(m, None)
        return out

    def __sub__(self, other: "AbsPoly") -> "AbsPoly":
        return self + (-other)

    def __mul__(self, other: "AbsPoly") -> "AbsPoly":
        out = AbsPoly()
        acc = out.terms
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(sorted(ma + mb))
                s = acc.get(m, Fraction(0)) + ca * cb
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return out

    def scale(self, c: Rational) -> "AbsPoly":
        if not c:
            return AbsPoly()
        out = AbsPoly()
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def bidegree(self) -> tuple[int, int]:
        deg: tuple[int, int] | None = None
        for m in self.terms:
            d = mono_bidegree(m)
            if deg is None:
                deg = d
            elif deg != d:
                raise NotHomogeneous(f"mixed bidegrees {deg} and {d}")
        return deg if deg is not None else (0, 0)

    def sorted_terms(self) -> list[tuple[AbsMonomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _mono_grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"AbsPoly({len(self.terms)} terms)"


def abs_poly_text(p: AbsPoly) -> str:
    """Canonical one-line text form, used for digests."""
    parts = []
    for m, c in p.sorted_terms():
        parts.append(f"{c.numerator}/{c.denominator} {mono_name(m)}")
    return "; ".join(parts) if parts else "0"


def abs_delta(p: AbsPoly) -> AbsPoly:
    """Raising derivation: u_{i,j} -> j u_{i,j-1}."""
    out = AbsPoly()
    acc = out.terms
    for mono, c in p.terms.items():
        for pos, gid in enumerate(mono):
            g = ABS_GENS[gid]
            if g.j == 0:
                continue
            m2 = tuple(sorted(mono[:pos] + (gid - 1,) + mono[pos + 1 :]))
            s = acc.get(m2, Fraction(0)) + c * g.j
            if s:
                acc[m2] = s
            else:
                acc.pop(m2, None)
    return out


def abs_delta1(p: AbsPoly) -> AbsPoly:
    """Lowering derivation: u_{i,j} -> (a_i - j) u_{i,j+1}."""
    out = AbsPoly()
    acc = out.terms
    for mono, c in p.terms.items():
        for pos, gid in enumerate(mono):
            g = ABS_GENS[gid]
            part = PARTS[g.module - 1]
            a = part.l1 - part.l2
            if g.j == a:
                continue
            m2 = tuple(sorted(mono[:pos] + (gid + 1,) + mono[pos + 1 :]))
            s = acc.get(m2, Fraction(0)) + c * (a - g.j)
            if s:
                acc[m2] = s
            else:
                acc.pop(m2, None)
    return out
