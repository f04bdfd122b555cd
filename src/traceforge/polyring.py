"""Exact multivariate polynomial arithmetic.

Coefficients are arbitrary-precision rationals throughout.  Polynomials are
kept as hash maps from exponent tuples to nonzero coefficients; a canonical
graded-lex text form is defined for serialization and caching.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction

# Exponent vector over a fixed VarSet, one entry per variable.
Monomial = tuple[int, ...]


class VarSet:
    """An ordered, immutable set of variable names.  Two VarSets are equal
    when their names are, in the same order."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "names", names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"VarSet is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"VarSet is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet(names={self.names!r})"

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(i + j for i, j in zip(a, b, strict=True))


def _grlex_key(m: Monomial) -> tuple:
    return (sum(m), m)


class CommPoly:
    """A commutative polynomial over a fixed VarSet.

    terms maps exponent tuples to nonzero Rational coefficients.  Zero
    coefficients are never stored.
    """

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, Rational] | None = None):
        self.varset = varset
        self.terms: dict[Monomial, Rational] = {}
        if terms:
            n = len(varset)
            for m, c in terms.items():
                if len(m) != n:
                    raise ValueError(f"exponent tuple of length {len(m)}, expected {n}")
                if c:
                    self.terms[m] = Fraction(c)

    @classmethod
    def zero(cls, varset: VarSet) -> "CommPoly":
        return cls(varset)

    @classmethod
    def constant(cls, varset: VarSet, c: Rational) -> "CommPoly":
        p = cls(varset)
        if c:
            p.terms[(0,) * len(varset)] = Fraction(c)
        return p

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> "CommPoly":
        i = varset.index(name)
        m = tuple(1 if j == i else 0 for j in range(len(varset)))
        return cls(varset, {m: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coeff(self, m: Monomial) -> Rational:
        return self.terms.get(m, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self):
        raise TypeError("CommPoly is mutable, not hashable")

    def __neg__(self) -> "CommPoly":
        out = CommPoly(self.varset)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other: "CommPoly") -> "CommPoly":
        return poly_add(self, other)

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return poly_add(self, -other)

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        return poly_mul(self, other)

    def scale(self, c: Rational) -> "CommPoly":
        if not c:
            return CommPoly(self.varset)
        out = CommPoly(self.varset)
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        """Terms in graded-lex descending order over the variable order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"CommPoly({n} term{'s' if n != 1 else ''}, {len(self.varset)} vars)"


def poly_add(a: CommPoly, b: CommPoly) -> CommPoly:
    if a.varset != b.varset:
        raise ValueError("VarSet mismatch")
    out = CommPoly(a.varset)
    out.terms = dict(a.terms)
    for m, c in b.terms.items():
        s = out.terms.get(m, Fraction(0)) + c
        if s:
            out.terms[m] = s
        else:
            out.terms.pop(m, None)
    return out


def poly_mul(a: CommPoly, b: CommPoly) -> CommPoly:
    if a.varset != b.varset:
        raise ValueError("VarSet mismatch")
    out = CommPoly(a.varset)
    acc = out.terms
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = monomial_mul(ma, mb)
            s = acc.get(m, Fraction(0)) + ca * cb
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return out


def poly_to_text(p: CommPoly) -> str:
    """Canonical text form: one term per line, `num/den e1 e2 ... en`,
    graded-lex descending.  The zero polynomial serializes to an empty string.
    """
    lines = []
    for m, c in p.sorted_terms():
        lines.append(f"{c.numerator}/{c.denominator} " + " ".join(str(e) for e in m))
    return "\n".join(lines)


def poly_from_text(varset: VarSet, text: str) -> CommPoly:
    n = len(varset)
    terms: dict[Monomial, Rational] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != n + 1:
            raise ValueError(f"line {lineno}: expected coefficient plus {n} exponents")
        num, _, den = parts[0].partition("/")
        if not den:
            raise ValueError(f"line {lineno}: coefficient must be num/den")
        c = Fraction(int(num), int(den))
        m = tuple(int(e) for e in parts[1:])
        if any(e < 0 for e in m):
            raise ValueError(f"line {lineno}: negative exponent")
        if m in terms:
            raise ValueError(f"line {lineno}: duplicate monomial")
        if c:
            terms[m] = c
    return CommPoly(varset, terms)
