"""Exact multivariate polynomial arithmetic and truncated two-variable series.

Coefficients are arbitrary-precision rationals throughout.  Polynomials are
kept as hash maps from exponent tuples to nonzero coefficients; a canonical
graded-lex text form is defined for serialization and caching.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

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


def monomial_degree(a: Monomial) -> int:
    return sum(a)


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


# ---------------------------------------------------------------------------
# Truncated bivariate power series in (t, u), used for Hilbert series work.


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


def series_add(a: BiSeries, b: BiSeries) -> BiSeries:
    if a.D != b.D:
        raise ValueError("truncation bound mismatch")
    out = BiSeries(a.D)
    out.coeffs = dict(a.coeffs)
    for k, c in b.coeffs.items():
        s = out.coeffs.get(k, Fraction(0)) + c
        if s:
            out.coeffs[k] = s
        else:
            out.coeffs.pop(k, None)
    return out


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
