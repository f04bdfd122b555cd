"""glcat.AbsPoly on integer numerators against the Fraction oracle.

abs_oracle keeps the Fraction implementation that glcat.AbsPoly replaced;
every operation must give the same coefficients, the same canonical text
and the same equalities.  The generator algebra, and the trace
expressions that phi maps it to, must construct no Fraction on their own.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abs_oracle as oracle
from traceforge import relfinder
from traceforge.glcat import (
    NGENS,
    AbsPoly,
    Partition,
    abs_delta,
    abs_delta1,
    abs_poly_text,
    phi,
)
from traceforge.hwv import hwv_basis, hwv_verify, raising_kernel, span_rank
from traceforge.tracelang import X, Y, commutator, delta, delta1, trace_of

monomials = st.lists(st.integers(0, NGENS - 1), max_size=4).map(lambda m: tuple(sorted(m)))
coefficients = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(-(1 << 70), 1 << 70),
)
term_maps = st.dictionaries(monomials, coefficients, max_size=6)


def assert_same(p: AbsPoly, q: oracle.AbsPoly) -> None:
    """p equals the oracle's q, and keeps the invariants of AbsPoly."""
    assert dict(p.terms) == q.terms
    assert p.sorted_terms() == q.sorted_terms()
    assert abs_poly_text(p) == oracle.abs_poly_text(q)
    assert p.text_terms() == [(m, f"{c.numerator}/{c.denominator}") for m, c in q.sorted_terms()]
    assert p.den > 0 and all(p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1 if p.nums else p.den == 1


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, coefficients)
def test_the_integer_algebra_agrees_with_the_fraction_oracle(ta, tb, c):
    a, b = AbsPoly(ta), AbsPoly(tb)
    fa, fb = oracle.AbsPoly(ta), oracle.AbsPoly(tb)
    assert_same(a, fa)
    assert_same(b, fb)
    assert_same(a + b, fa + fb)
    assert_same(a - b, fa - fb)
    assert_same(-a, -fa)
    assert_same(a * b, fa * fb)
    assert_same(a.scale(c), fa.scale(c))
    assert_same(abs_delta(a), oracle.abs_delta(fa))
    assert_same(abs_delta1(a), oracle.abs_delta1(fa))
    assert (a == b) == (fa == fb)
    assert a - a == AbsPoly() and (a + b) - b == a
    assert a.is_zero() == fa.is_zero()


@given(term_maps, st.integers(1, 10**6))
def test_a_common_denominator_divides_every_term(terms, den):
    assert_same(
        AbsPoly(terms, den),
        oracle.AbsPoly({m: Fraction(c) / den for m, c in terms.items()}),
    )


@pytest.mark.parametrize(
    "terms", [{(30,): 1}, {(-1,): 1}, {(0, 31): 2}, {(3, 1): 1}, {(2, 2, 0): Fraction(1, 2)}]
)
def test_a_bad_generator_id_or_an_unsorted_monomial_is_rejected(terms):
    with pytest.raises(ValueError):
        oracle.AbsPoly(terms)
    with pytest.raises(ValueError):
        AbsPoly(terms)


def test_a_denominator_that_is_not_positive_is_rejected():
    for den in (0, -3):
        with pytest.raises(ValueError):
            AbsPoly({(0,): 1}, den)


def test_a_stored_coefficient_must_read_n_over_d():
    # relvectors are stored as [monomial, "n/d"]; anything else is a miss
    assert relfinder._stored_poly([[[0, 1], "-3/6"]]) == AbsPoly({(0, 1): Fraction(-1, 2)})
    for bad in ("1/0", "2/-3", "3", "1/2/3", "a/2"):
        with pytest.raises(ValueError):
            relfinder._stored_poly([[[0], bad]])
    with pytest.raises(TypeError):
        relfinder._stored_poly([[[0], 1]])
    with pytest.raises(ValueError):
        relfinder._stored_poly([[[30], "1/1"]])


def test_the_generator_algebra_constructs_no_fraction(monkeypatch, session_cache):
    # abs_delta, abs_delta1, the arithmetic, the highest-weight checks, the
    # integer rows of span_rank and the kernel of the raising map run on
    # Python ints; so do NcPoly products, trace_of, delta, delta1 and phi
    lam = Partition(7, 5)
    basis = hwv_basis(lam)
    relvectors = relfinder.relation_space(lam, cache=session_cache).relvectors
    a, b = basis.vectors[:2]
    third = Fraction(1, 3)
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    abs_delta(a)
    abs_delta1(a)
    (a + b, a - b, -a, a * b, a.scale(2), a.scale(third), a == b)
    relfinder._check_highest_weight(lam, basis.vectors)
    assert hwv_verify(basis, evaluate=False).ok
    assert span_rank(basis.vectors) == basis.s
    kernel = raising_kernel([AbsPoly.monomial(m) for m in basis.monomials])
    assert len(kernel) == basis.s
    word = commutator(X, Y) ** 2 * X - (X * Y).scale(third)
    e = trace_of(word**2)
    (delta(e), delta1(e))
    images = [phi(v) for v in relvectors]
    assert made[0] == 0
    assert not any(image.is_zero() for image in images)
    dict(a.terms)
    assert made[0] == len(a.nums)  # the Fraction view does construct them
