"""Exact sparse rational linear combinations, and the commutative
polynomials built on them.

LinComb is a finite Q-linear combination of monomials, kept as a dict from
monomial to nonzero Rational coefficient; zero coefficients are never
stored.  Its add, negate, scale, multiply and power are shared by every
symbolic object: CommPoly here, NcPoly and TraceExpr in tracelang, and the
phi parser's symbol expansion.  A subclass supplies only its monomial
product, its unit monomial and its check on the monomials it accepts.

CommPoly is a commutative polynomial over a fixed VarSet, with exponent
tuples as monomials; a canonical graded-lex text form is defined for
serialization and caching.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

Rational = Fraction

# Exponent vector over a fixed VarSet, one entry per variable.
Monomial = tuple[int, ...]


def add_terms(acc: dict, pairs: Iterable[tuple[Hashable, Rational]]) -> dict:
    """Add each (monomial, coefficient) pair into acc and return acc.  A
    monomial whose coefficients sum to zero is dropped; a monomial's first
    coefficient is stored as it is.  Updated monomials keep their place."""
    for m, c in pairs:
        if m in acc:
            c = acc[m] + c
            if not c:
                del acc[m]
                continue
        if c:
            acc[m] = c
    return acc


class LinComb:
    """A finite Q-linear combination of monomials.

    terms maps monomials to nonzero Rational coefficients.  Objects are
    mutable, so unhashable, and equal only to objects of the same class with
    the same terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Hashable, Rational] | None = None):
        self.terms: dict = {}
        if terms:
            for m, c in terms.items():
                self._check_monomial(m)
                if c:
                    self.terms[m] = Fraction(c)

    def _check_monomial(self, m: Hashable) -> None:
        """Raise ValueError for a monomial this class does not accept."""

    @staticmethod
    def mono_mul(a: Hashable, b: Hashable) -> Hashable:
        raise NotImplementedError

    def _unit(self) -> Hashable:
        """The monomial of the constant 1."""
        return ()

    def _like(self, terms: dict):
        """An object of this class, and of self's VarSet, holding terms."""
        out = object.__new__(self.__class__)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Rational):
        if not c:
            return self._like({})
        return self._like({m: v * c for m, v in self.terms.items()})

    def __mul__(self, other):
        mul = self.mono_mul
        pairs = (
            (mul(ma, mb), ca * cb)
            for ma, ca in self.terms.items()
            for mb, cb in other.terms.items()
        )
        return self._like(add_terms({}, pairs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self._like({self._unit(): Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"{self.__class__.__name__}({n} term{'s' if n != 1 else ''})"


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


def _grlex_key(m: Monomial) -> tuple:
    return (sum(m), m)


class CommPoly(LinComb):
    """A commutative polynomial over a fixed VarSet: terms maps exponent
    tuples to coefficients.  Adding or multiplying polynomials over two
    VarSets raises ValueError."""

    __slots__ = ("varset",)

    def __init__(self, varset: VarSet, terms: Mapping[Monomial, Rational] | None = None):
        self.varset = varset
        super().__init__(terms)

    def _check_monomial(self, m: Monomial) -> None:
        if len(m) != len(self.varset):
            raise ValueError(
                f"exponent tuple of length {len(m)}, expected {len(self.varset)}"
            )

    @staticmethod
    def mono_mul(a: Monomial, b: Monomial) -> Monomial:
        return tuple(i + j for i, j in zip(a, b, strict=True))

    def _unit(self) -> Monomial:
        return (0,) * len(self.varset)

    def _like(self, terms: dict) -> "CommPoly":
        out = super()._like(terms)
        out.varset = self.varset
        return out

    def _same_varset(self, other: "CommPoly") -> None:
        if self.varset != other.varset:
            raise ValueError("VarSet mismatch")

    @classmethod
    def zero(cls, varset: VarSet) -> "CommPoly":
        return cls(varset)

    @classmethod
    def constant(cls, varset: VarSet, c: Rational) -> "CommPoly":
        return cls(varset, {(0,) * len(varset): c})

    @classmethod
    def variable(cls, varset: VarSet, name: str) -> "CommPoly":
        i = varset.index(name)
        m = tuple(1 if j == i else 0 for j in range(len(varset)))
        return cls(varset, {m: Fraction(1)})

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
        if other.__class__ is not CommPoly:
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __add__(self, other: "CommPoly") -> "CommPoly":
        self._same_varset(other)
        return super().__add__(other)

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        self._same_varset(other)
        return super().__mul__(other)

    def sorted_terms(self) -> list[tuple[Monomial, Rational]]:
        """Terms in graded-lex descending order over the variable order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"CommPoly({n} term{'s' if n != 1 else ''}, {len(self.varset)} vars)"


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
