"""Exact sparse rational linear combinations, and the commutative
polynomials built on them.

LinComb is a finite Q-linear combination of monomials: nums maps each
monomial to a nonzero int numerator over one common denominator den, with
den > 0 and gcd(content, den) = 1, so that equal combinations have equal
nums and den.  Its arithmetic runs on Python ints, and terms is a read-only
view of the coefficients as Fractions.  The add, negate, scale, multiply and
power are shared by every symbolic object: CommPoly here, NcPoly and
TraceExpr in tracelang, the phi parser's symbol expansion and
glcat.AbsPoly.  A subclass supplies only its monomial product, its unit
monomial and its check on the monomials it accepts.

CommPoly is a commutative polynomial over a fixed VarSet, with exponent
tuples as monomials; a canonical graded-lex text form is defined for
serialization and caching.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

Rational = Fraction

# Exponent vector over a fixed VarSet, one entry per variable.
Monomial = tuple[int, ...]


def _exact(c) -> int | Fraction:
    """c as an int or a Fraction.  Anything else is converted by Fraction,
    exactly: 0.1 becomes 3602879701896397/36028797018963968, and what is no
    number raises TypeError or ValueError."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def add_nums(acc: dict, pairs: Iterable[tuple[Hashable, int]]) -> dict:
    """Add each (monomial, nonzero int) pair into acc, whose ints are
    numerators over one denominator, and return acc.  A monomial whose
    numerators sum to zero is dropped."""
    for m, v in pairs:
        s = acc.get(m, 0) + v
        if s:
            acc[m] = s
        else:
            del acc[m]
    return acc


def combination(items: Iterable[tuple[int | Fraction, "LinComb"]]) -> tuple[dict, int]:
    """(nums, den) of the sum of c * p over the (c, p) of items, each c an
    int or a Fraction: den is the lcm of the denominators of the c * p, and
    the result is not yet reduced (see LinComb._of)."""
    items = [(c, p) for c, p in items if c and p.nums]
    den = lcm(1, *(c.denominator * p.den for c, p in items))
    acc: dict = {}
    for c, p in items:
        f = c.numerator * (den // (c.denominator * p.den))
        add_nums(acc, ((m, v * f) for m, v in p.nums.items()))
    return acc, den


class LinComb:
    """A finite Q-linear combination of monomials: nums[m] / den is the
    coefficient of the monomial m (see the module docstring for the
    invariants).  Objects are mutable, so unhashable, and equal only to
    objects of the same class with the same nums and den.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: Mapping[Hashable, Rational | int] | None = None):
        """sum terms[m] * m over the monomials m of terms."""
        self._fill(terms, 1)

    def _fill(self, terms: Mapping[Hashable, Rational | int] | None, den: int) -> None:
        """Make self sum terms[m] / den * m, checking each monomial and making
        each coefficient exact as _exact() does."""
        coeffs = {}
        for m, c in (terms or {}).items():
            self._check_monomial(m)
            if c:
                coeffs[m] = _exact(c)
        common = lcm(1, *(c.denominator for c in coeffs.values()))
        nums = {m: c.numerator * (common // c.denominator) for m, c in coeffs.items()}
        self.nums, self.den = _reduced(nums, den * common)

    @classmethod
    def _of(cls, nums: dict, den: int):
        """nums / den, whose numerators are nonzero ints and whose monomials
        are valid; it takes nums over and reduces it."""
        out = object.__new__(cls)
        out.nums, out.den = _reduced(nums, den)
        return out

    def _like(self, nums: dict, den: int):
        """_of for self's class; CommPoly also copies its VarSet here."""
        return self._of(nums, den)

    def _check_monomial(self, m: Hashable) -> None:
        """Raise ValueError for a monomial this class does not accept."""

    @staticmethod
    def mono_mul(a: Hashable, b: Hashable) -> Hashable:
        raise NotImplementedError

    def _unit(self) -> Hashable:
        """The monomial of the constant 1."""
        return ()

    @classmethod
    def zero(cls):
        return cls()

    @property
    def terms(self) -> Mapping:
        """The coefficients as Fractions, by monomial (a read-only copy)."""
        den = self.den
        return MappingProxyType({m: Fraction(v, den) for m, v in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __neg__(self):
        return self._like(*combination(((-1, self),)))

    def __add__(self, other):
        return self._like(*combination(((1, self), (1, other))))

    def __sub__(self, other):
        # through +, so that CommPoly's VarSet check applies
        return self + (-other)

    def scale(self, c: Rational | int):
        """c times self; c is made exact as _exact() does."""
        return self._like(*combination(((_exact(c), self),)))

    def __mul__(self, other):
        mul = self.mono_mul
        pairs = (
            (mul(ma, mb), ca * cb)
            for ma, ca in self.nums.items()
            for mb, cb in other.nums.items()
        )
        return self._like(add_nums({}, pairs), self.den * other.den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self._like({self._unit(): 1}, 1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        n = len(self.nums)
        return f"{self.__class__.__name__}({n} term{'s' if n != 1 else ''})"


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """nums and den divided by gcd(content, den); den 1 for zero."""
    if not nums:
        return nums, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: v // g for m, v in nums.items()}
            den //= g
    return nums, den


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

    def _like(self, nums: dict, den: int) -> "CommPoly":
        out = super()._like(nums, den)
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
        return cls(varset, {m: 1})

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(sum(m) for m in self.nums)

    def coeff(self, m: Monomial) -> Rational:
        return Fraction(self.nums.get(m, 0), self.den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CommPoly:
            return NotImplemented
        return self.varset == other.varset and super().__eq__(other)

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
        n = len(self.nums)
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
    """The polynomial of the text poly_to_text writes.  Every error is a
    ValueError that names its line: a field that int() cannot read, such
    as "a/2", "x" or "²", a denominator that is not positive, a negative
    exponent, a repeated monomial or a line of the wrong length."""
    n = len(varset)
    terms: dict[Monomial, Rational] = {}

    def integer(field: str, what: str, lineno: int) -> int:
        try:
            return int(field)
        except ValueError:
            raise ValueError(f"line {lineno}: {what} {field!r} is not an integer") from None

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
        num, den = integer(num, "numerator", lineno), integer(den, "denominator", lineno)
        if den == 0:
            raise ValueError(f"line {lineno}: zero denominator")
        if den < 0:
            raise ValueError(f"line {lineno}: denominator of {parts[0]!r} is not positive")
        c = Fraction(num, den)
        m = tuple(integer(e, "exponent", lineno) for e in parts[1:])
        if any(e < 0 for e in m):
            raise ValueError(f"line {lineno}: negative exponent")
        if m in terms:
            raise ValueError(f"line {lineno}: duplicate monomial")
        if c:
            terms[m] = c
    return CommPoly(varset, terms)
