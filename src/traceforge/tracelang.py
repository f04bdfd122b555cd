"""Symbolic trace expressions in two noncommuting letters x and y.

A Word is a string over {x, y}.  Traces of words are invariant under cyclic
rotation, so trace monomials store each word in least-rotation canonical form
and keep the factors sorted.  Both matrices are traceless by convention, so
traces of single letters are excluded from the monomial alphabet rather than
silently replaced by zero.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polyring import LinComb, Rational, add_nums

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


class NcPoly(LinComb):
    """A finite Q-linear combination of words in x and y; the product
    concatenates words."""

    __slots__ = ()

    def _check_monomial(self, w: Word) -> None:
        if any(ch not in "xy" for ch in w):
            raise ValueError(f"word {w!r} contains letters outside x, y")

    @staticmethod
    def mono_mul(a: Word, b: Word) -> Word:
        return a + b

    def _unit(self) -> Word:
        return ""

    @classmethod
    def word(cls, w: Word) -> "NcPoly":
        return cls({w: 1})


X = NcPoly.word("x")
Y = NcPoly.word("y")


def commutator(a: NcPoly, b: NcPoly) -> NcPoly:
    return a * b - b * a


# ---------------------------------------------------------------------------
# Trace expressions.


class TraceExpr(LinComb):
    """A Q-linear combination of products of traces of words.  Equality is
    syntactic, on normalized monomials."""

    __slots__ = ()

    @staticmethod
    def mono_mul(a: TraceMonomial, b: TraceMonomial) -> TraceMonomial:
        return tuple(sorted(a + b, key=_word_key))

    @classmethod
    def constant(cls, c: Rational) -> "TraceExpr":
        return cls({(): c})

    def sorted_terms(self) -> list[tuple[TraceMonomial, Rational]]:
        def key(m: TraceMonomial):
            return (sum(len(w) for w in m), len(m), m)

        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)


def trace_of(p: NcPoly) -> TraceExpr:
    """The trace of a noncommutative polynomial as a TraceExpr.

    Words must have length at least 2; a length-0 or length-1 word raises
    TracelessViolation.
    """

    def pairs():
        for w, v in p.nums.items():
            if len(w) < 2:
                raise TracelessViolation(
                    f"trace of word {w!r} is not representable in the monomial alphabet"
                )
            yield (cyclic_normalize(w),), v

    return TraceExpr._of(add_nums({}, pairs()), p.den)


def _word_derivation(w: Word, src: str, dst: str) -> list[Word]:
    """All single-position substitutions src -> dst in w, not normalized."""
    return [w[:i] + dst + w[i + 1 :] for i, ch in enumerate(w) if ch == src]


def _te_derivation(e: TraceExpr, src: str, dst: str) -> TraceExpr:
    def pairs():
        for mono, v in e.nums.items():
            for i, w in enumerate(mono):
                rest = mono[:i] + mono[i + 1 :]
                for w2 in _word_derivation(w, src, dst):
                    yield TraceExpr.mono_mul(rest, (cyclic_normalize(w2),)), v

    return TraceExpr._of(add_nums({}, pairs()), e.den)


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
    for mono in e.nums:
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


# whitespace, then the digits that int() reads: \d is str.isdecimal, while
# str.isdigit also accepts digits such as "²" that int() rejects
_SPACES = re.compile(r"\s*")
_INT = re.compile(r"\s*(\d*)")


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
        self.pos = _SPACES.match(self.text, self.pos).end()

    def peek(self) -> str:
        if self.text[self.pos : self.pos + 1].isspace():
            self.skip_ws()
        return self.text[self.pos : self.pos + 1]

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
        num = self.try_int()
        if num is None:
            raise self.error("expected integer")
        return num

    def try_int(self) -> int | None:
        """The integer after whitespace, None unless a digit comes next;
        either way the whitespace is skipped."""
        digits = _INT.match(self.text, self.pos)
        self.pos = digits.start(1)
        if not digits[1]:
            return None
        self.pos = digits.end()
        return int(digits[1])

    def try_rational(self) -> Rational | None:
        """An integer or int/int literal, None unless a digit comes next."""
        num = self.try_int()
        if num is None:
            return None
        save = self.pos
        if self.peek() == "/":
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

    def signed_sum(self, parse_item):
        """parse_item (('+' | '-') parse_item)*, after an optional sign."""
        negate = self.try_take("-")
        if not negate:
            self.try_take("+")
        out = parse_item(self)
        if negate:
            out = -out
        while True:
            if self.try_take("+"):
                out = out + parse_item(self)
            elif self.try_take("-"):
                out = out - parse_item(self)
            else:
                return out


def parse_trace(text: str) -> TraceExpr:
    """Parse the trace-expression grammar above into a TraceExpr."""
    sc = _Scanner(text)
    expr = sc.signed_sum(_parse_term)
    sc.skip_ws()
    if not sc.at_end():
        raise TraceParseError("trailing input", sc.pos)
    return expr


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
    body = sc.signed_sum(_parse_ncword)
    sc.take(")")
    base = trace_of(body)
    if sc.try_take("^"):
        return base ** sc.take_int()
    return base


def _parse_ncword(sc: _Scanner) -> NcPoly:
    out = _parse_ncatom(sc)
    while True:
        ch = sc.peek()
        if ch in ("x", "y", "[", "("):
            out = out * _parse_ncatom(sc)
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
        atom = sc.signed_sum(_parse_ncword)
        sc.take(")")
    else:
        raise TraceParseError("expected x, y, '[' or '('", sc.pos)
    while sc.try_take("^"):
        atom = atom ** sc.take_int()
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
