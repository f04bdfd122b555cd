"""Symbolic trace expressions in two noncommuting letters x and y.

A Word is a string over {x, y}.  Traces of words are invariant under cyclic
rotation, so trace monomials store each word in least-rotation canonical form
and keep the factors sorted.  Both matrices are traceless by convention, so
traces of single letters are excluded from the monomial alphabet rather than
silently replaced by zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction
Word = str

# A product of traces: cyclic-canonical words, each of length >= 2, sorted by
# the fixed word order (length, then lexicographic).  The empty tuple is the
# constant monomial 1.
TraceMonomial = tuple[Word, ...]


class TracelessViolation(ValueError):
    """Raised when a trace of a length-0 or length-1 word is requested."""


class NotHomogeneous(ValueError):
    """Raised when a bidegree is requested for an inhomogeneous expression."""


def cyclic_normalize(w: Word) -> Word:
    """Least rotation of w in lexicographic order (x sorts before y)."""
    if len(w) <= 1:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def _word_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


# ---------------------------------------------------------------------------
# Noncommutative polynomials in x and y.


class NcPoly:
    """A finite Q-linear combination of words in x and y."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Rational] | None = None):
        self.terms: dict[Word, Rational] = {}
        if terms:
            for w, c in terms.items():
                if any(ch not in "xy" for ch in w):
                    raise ValueError(f"word {w!r} contains letters outside x, y")
                if c:
                    self.terms[w] = Fraction(c)

    @classmethod
    def word(cls, w: Word) -> "NcPoly":
        return cls({w: Fraction(1)})

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "NcPoly":
        out = NcPoly()
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __add__(self, other: "NcPoly") -> "NcPoly":
        out = NcPoly()
        out.terms = dict(self.terms)
        for w, c in other.terms.items():
            s = out.terms.get(w, Fraction(0)) + c
            if s:
                out.terms[w] = s
            else:
                out.terms.pop(w, None)
        return out

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        return nc_mul(self, other)

    def scale(self, c: Rational) -> "NcPoly":
        if not c:
            return NcPoly()
        out = NcPoly()
        out.terms = {w: v * c for w, v in self.terms.items()}
        return out

    def __repr__(self) -> str:
        return f"NcPoly({len(self.terms)} terms)"


X = NcPoly.word("x")
Y = NcPoly.word("y")


def nc_mul(a: NcPoly, b: NcPoly) -> NcPoly:
    """Concatenation product, extended bilinearly."""
    out = NcPoly()
    acc = out.terms
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            s = acc.get(w, Fraction(0)) + ca * cb
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
    return out


def nc_pow(a: NcPoly, n: int) -> NcPoly:
    if n < 0:
        raise ValueError("negative power")
    out = NcPoly({"": Fraction(1)})
    for _ in range(n):
        out = nc_mul(out, a)
    return out


def commutator(a: NcPoly, b: NcPoly) -> NcPoly:
    return nc_mul(a, b) - nc_mul(b, a)


# ---------------------------------------------------------------------------
# Trace expressions.


class TraceExpr:
    """A Q-linear combination of products of traces of words."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TraceMonomial, Rational] | None = None):
        self.terms: dict[TraceMonomial, Rational] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = Fraction(c)

    @classmethod
    def zero(cls) -> "TraceExpr":
        return cls()

    @classmethod
    def constant(cls, c: Rational) -> "TraceExpr":
        return cls({(): Fraction(c)}) if c else cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        """Syntactic equality on normalized monomials only."""
        if not isinstance(other, TraceExpr):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "TraceExpr":
        out = TraceExpr()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other: "TraceExpr") -> "TraceExpr":
        out = TraceExpr()
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            s = out.terms.get(m, Fraction(0)) + c
            if s:
                out.terms[m] = s
            else:
                out.terms.pop(m, None)
        return out

    def __sub__(self, other: "TraceExpr") -> "TraceExpr":
        return self + (-other)

    def __mul__(self, other: "TraceExpr") -> "TraceExpr":
        out = TraceExpr()
        acc = out.terms
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(sorted(ma + mb, key=_word_key))
                s = acc.get(m, Fraction(0)) + ca * cb
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return out

    def scale(self, c: Rational) -> "TraceExpr":
        if not c:
            return TraceExpr()
        out = TraceExpr()
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def sorted_terms(self) -> list[tuple[TraceMonomial, Rational]]:
        def key(m: TraceMonomial):
            return (sum(len(w) for w in m), len(m), m)

        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"TraceExpr({len(self.terms)} terms)"


def trace_of(p: NcPoly) -> TraceExpr:
    """The trace of a noncommutative polynomial as a TraceExpr.

    Words must have length at least 2; a length-0 or length-1 word raises
    TracelessViolation.
    """
    out = TraceExpr()
    acc = out.terms
    for w, c in p.terms.items():
        if len(w) < 2:
            raise TracelessViolation(
                f"trace of word {w!r} is not representable in the monomial alphabet"
            )
        m = (cyclic_normalize(w),)
        s = acc.get(m, Fraction(0)) + c
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return out


def _word_derivation(w: Word, src: str, dst: str) -> list[Word]:
    """All single-position substitutions src -> dst in w, not normalized."""
    return [w[:i] + dst + w[i + 1 :] for i, ch in enumerate(w) if ch == src]


def _te_derivation(e: TraceExpr, src: str, dst: str) -> TraceExpr:
    out = TraceExpr()
    acc = out.terms
    for mono, c in e.terms.items():
        for i, w in enumerate(mono):
            rest = mono[:i] + mono[i + 1 :]
            for w2 in _word_derivation(w, src, dst):
                m = tuple(sorted(rest + (cyclic_normalize(w2),), key=_word_key))
                s = acc.get(m, Fraction(0)) + c
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
    return out


def delta(e: TraceExpr) -> TraceExpr:
    """The derivation sending y to x, acting by the Leibniz rule."""
    return _te_derivation(e, "y", "x")


def delta1(e: TraceExpr) -> TraceExpr:
    """The derivation sending x to y, acting by the Leibniz rule."""
    return _te_derivation(e, "x", "y")


def bidegree(e: TraceExpr) -> tuple[int, int]:
    """The common (x-degree, y-degree) of all monomials.

    Raises NotHomogeneous when monomials disagree.  The zero expression and
    the constant expression have bidegree (0, 0).
    """
    deg: tuple[int, int] | None = None
    for mono in e.terms:
        p = sum(w.count("x") for w in mono)
        q = sum(w.count("y") for w in mono)
        if deg is None:
            deg = (p, q)
        elif deg != (p, q):
            raise NotHomogeneous(f"mixed bidegrees {deg} and {(p, q)}")
    return deg if deg is not None else (0, 0)


# ---------------------------------------------------------------------------
# Text form.  Grammar:
#
#   expr   := term (('+' | '-') term)*
#   term   := rational? ('*'? factor)+
#   factor := 'tr' '(' ncword ')' ('^' int)?
#   ncword := ncatom+
#   ncatom := 'x' | 'y' | '[' ncword ',' ncword ']'
#           | '(' ncsum ')' | ncatom '^' int
#   ncsum  := ncword (('+' | '-') ncword)*
#
# A leading sign before the first term (or first ncword of an ncsum) is
# accepted so that formatted expressions always reparse.


class TraceParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class _Scanner:
    """Character scanner shared by the trace and phi grammars.  Errors are
    error_class(msg, pos), so each grammar raises its own class."""

    error_class: type[ValueError] = TraceParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str, pos: int | None = None) -> ValueError:
        return self.error_class(msg, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.peek() == ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def try_take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected integer")
        return int(self.text[start : self.pos])

    def try_rational(self) -> Rational | None:
        """An integer or int/int literal, None unless a digit comes next."""
        self.skip_ws()
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            return None
        num = self.take_int()
        save = self.pos
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den = self.take_int()
            if den == 0:
                raise self.zero_denominator(save)
            return Fraction(num, den)
        self.pos = save
        return Fraction(num)

    def zero_denominator(self, numerator_end: int) -> ValueError:
        # a trace expression reports the end of the numerator
        return self.error("zero denominator", numerator_end)


def parse_trace(text: str) -> TraceExpr:
    """Parse the trace-expression grammar above into a TraceExpr."""
    sc = _Scanner(text)
    expr = _parse_expr(sc)
    sc.skip_ws()
    if not sc.at_end():
        raise TraceParseError("trailing input", sc.pos)
    return expr


def _parse_expr(sc: _Scanner) -> TraceExpr:
    sign = Fraction(1)
    if sc.try_take("-"):
        sign = Fraction(-1)
    elif sc.try_take("+"):
        pass
    out = _parse_term(sc).scale(sign)
    while True:
        if sc.try_take("+"):
            out = out + _parse_term(sc)
        elif sc.try_take("-"):
            out = out - _parse_term(sc)
        else:
            return out


def _parse_term(sc: _Scanner) -> TraceExpr:
    coeff = sc.try_rational()
    out = TraceExpr.constant(coeff if coeff is not None else Fraction(1))
    nfactors = 0
    while True:
        sc.try_take("*")
        sc.skip_ws()
        if sc.text.startswith("tr", sc.pos):
            out = out * _parse_factor(sc)
            nfactors += 1
        else:
            break
    if nfactors == 0:
        raise TraceParseError("expected a trace factor", sc.pos)
    return out


def _parse_factor(sc: _Scanner) -> TraceExpr:
    sc.skip_ws()
    if not sc.text.startswith("tr", sc.pos):
        raise TraceParseError("expected 'tr'", sc.pos)
    sc.pos += 2
    sc.take("(")
    body = _parse_ncsum(sc)
    sc.take(")")
    base = trace_of(body)
    if sc.try_take("^"):
        n = sc.take_int()
        out = TraceExpr.constant(Fraction(1))
        for _ in range(n):
            out = out * base
        return out
    return base


def _parse_ncsum(sc: _Scanner) -> NcPoly:
    sign = Fraction(1)
    if sc.try_take("-"):
        sign = Fraction(-1)
    elif sc.try_take("+"):
        pass
    out = _parse_ncword(sc).scale(sign)
    while True:
        if sc.try_take("+"):
            out = out + _parse_ncword(sc)
        elif sc.try_take("-"):
            out = out - _parse_ncword(sc)
        else:
            return out


def _parse_ncword(sc: _Scanner) -> NcPoly:
    out = _parse_ncatom(sc)
    while True:
        ch = sc.peek()
        if ch in ("x", "y", "[", "("):
            out = nc_mul(out, _parse_ncatom(sc))
        else:
            return out


def _parse_ncatom(sc: _Scanner) -> NcPoly:
    ch = sc.peek()
    if ch == "x":
        sc.take("x")
        atom = NcPoly.word("x")
    elif ch == "y":
        sc.take("y")
        atom = NcPoly.word("y")
    elif ch == "[":
        sc.take("[")
        a = _parse_ncword(sc)
        sc.take(",")
        b = _parse_ncword(sc)
        sc.take("]")
        atom = commutator(a, b)
    elif ch == "(":
        sc.take("(")
        atom = _parse_ncsum(sc)
        sc.take(")")
    else:
        raise TraceParseError("expected x, y, '[' or '('", sc.pos)
    while sc.try_take("^"):
        atom = nc_pow(atom, sc.take_int())
    return atom


def format_trace_expr(e: TraceExpr) -> str:
    """Render a TraceExpr in the grammar above.  Reparsing gives back an
    equal expression.  Constant terms have no representation in the grammar
    and raise ValueError.
    """
    if e.is_zero():
        raise ValueError("the zero expression has no representation in the grammar")
    pieces: list[tuple[str, str]] = []
    for mono, c in e.sorted_terms():
        if not mono:
            raise ValueError("constant terms have no representation in the grammar")
        factors: list[str] = []
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            power = j - i
            factors.append(f"tr({mono[i]})" + (f"^{power}" if power > 1 else ""))
            i = j
        body = "*".join(factors)
        mag = abs(c)
        coeff = "" if mag == 1 else (
            f"{mag.numerator}/{mag.denominator}*" if mag.denominator != 1 else f"{mag.numerator}*"
        )
        sign = "-" if c < 0 else "+"
        pieces.append((sign, coeff + body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
