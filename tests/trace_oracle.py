"""Trace-monomial construction and the substitution y -> x + y, the
oracles that tests/test_tracelang.py, tests/test_packedpoly.py and
criterion 9 of tests/test_acceptance.py use.

make_trace_monomial builds a canonical TraceMonomial from raw words;
subst_h applies y -> x + y to a trace expression word by word; it fixes
every expression that the raising map delta kills, so criterion 9 checks
each generator's highest weight vector with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from traceforge.tracelang import (
    NcPoly,
    TraceExpr,
    TraceMonomial,
    TracelessViolation,
    Word,
    _word_key,
    cyclic_normalize,
    trace_of,
)


def make_trace_monomial(words: Iterable[Word]) -> TraceMonomial:
    canon = []
    for w in words:
        if len(w) < 2:
            raise TracelessViolation(f"trace of word {w!r} is not representable")
        if any(ch not in "xy" for ch in w):
            raise ValueError(f"word {w!r} contains letters outside x, y")
        canon.append(cyclic_normalize(w))
    return tuple(sorted(canon, key=_word_key))


def _word_subst(w: Word, src: str, repl: NcPoly) -> NcPoly:
    out = NcPoly({"": Fraction(1)})
    for ch in w:
        out = out * (repl if ch == src else NcPoly({ch: Fraction(1)}))
    return out


def _te_subst(e: TraceExpr, src: str, repl: NcPoly) -> TraceExpr:
    out = TraceExpr()
    for mono, c in e.terms.items():
        part = TraceExpr.constant(Fraction(1))
        for w in mono:
            part = part * trace_of(_word_subst(w, src, repl))
        out = out + part.scale(c)
    return out


def subst_h(e: TraceExpr) -> TraceExpr:
    """Substitution y -> x + y, with x fixed."""
    return _te_subst(e, "y", NcPoly({"x": Fraction(1), "y": Fraction(1)}))
