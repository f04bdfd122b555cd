"""Exact polynomial arithmetic, and the truncated bivariate series oracle."""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincomb_oracle as oracle
from traceforge.glcat import AbsPoly
from traceforge.polyring import CommPoly, VarSet, poly_from_text, poly_to_text
from traceforge.tracelang import NcPoly, TraceExpr, parse_trace
from series_oracle import BiSeries, series_inv_geom, series_mul

VS = VarSet(("a", "b", "c"))


def mk(*terms):
    return CommPoly(VS, {m: Fraction(c) for m, c in terms})


def test_varset_rejects_duplicates():
    with pytest.raises(ValueError):
        VarSet(("a", "a"))


def test_basic_ring_ops():
    p = mk(((1, 0, 0), 1), ((0, 1, 0), -2))
    q = mk(((0, 0, 1), 3))
    assert (p + q) - q == p
    assert p * q == mk(((1, 0, 1), 3), ((0, 1, 1), -6))
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert p.degree() == 1
    assert (p * p).degree() == 2
    assert p.coeff((0, 1, 0)) == -2
    assert p.coeff((5, 5, 5)) == 0


def test_zero_coefficients_are_dropped():
    p = mk(((1, 0, 0), 1))
    q = mk(((1, 0, 0), -1))
    assert len(p + q) == 0
    assert CommPoly(VS, {(0, 0, 0): Fraction(0)}).is_zero()


def test_text_round_trip_fixed():
    p = mk(((2, 0, 1), Fraction(7, 3)), ((0, 0, 0), -1))
    assert poly_from_text(VS, poly_to_text(p)) == p
    assert poly_to_text(mk()) == ""
    assert poly_from_text(VS, "") == mk()


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        poly_from_text(VS, "1/2 1 2")  # wrong arity
    with pytest.raises(ValueError):
        poly_from_text(VS, "1/2 1 0 0\n1/3 1 0 0")  # duplicate monomial
    with pytest.raises(ValueError):
        poly_from_text(VS, "1/2 -1 0 0")  # negative exponent
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        poly_from_text(VS, "1/2 0 0 0\n1/0 1 0 0")


@pytest.mark.parametrize(
    "line, message",
    [
        ("a/2 1 0 0", "numerator 'a' is not an integer"),
        ("1/x 1 0 0", "denominator 'x' is not an integer"),
        ("1/2/3 1 0 0", "denominator '2/3' is not an integer"),
        ("1/2 x 0 0", "exponent 'x' is not an integer"),
        ("1/2 1 ² 0", "exponent '²' is not an integer"),
        ("²/2 1 0 0", "numerator '²' is not an integer"),
        ("1/-2 1 0 0", "denominator of '1/-2' is not positive"),
        ("-1/-2 1 0 0", "denominator of '-1/-2' is not positive"),
    ],
)
def test_text_names_the_line_of_a_field_it_cannot_read(line, message):
    # the parser's own ValueError, on line 2, not int()'s; a negative
    # denominator is rejected as relfinder._parse_ratio rejects it, since
    # poly_to_text never writes one
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        poly_from_text(VS, "1/2 0 0 0\n" + line)


def test_mixing_two_varsets_raises():
    p = mk(((1, 0, 0), 1))
    q = CommPoly(VarSet(("a", "b", "d")), {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_monomial_of_the_wrong_length_raises():
    with pytest.raises(ValueError):
        CommPoly(VS, {(1, 0): Fraction(1)})


def test_equal_terms_over_other_varsets_or_classes_are_not_equal():
    q = CommPoly(VarSet(("a", "b", "d")), {(1, 0, 0): Fraction(1)})
    assert mk(((1, 0, 0), 1)) != q
    assert mk() != TraceExpr()
    assert NcPoly() != TraceExpr()


def test_polynomials_are_unhashable():
    for p in (mk(), NcPoly(), TraceExpr()):
        with pytest.raises(TypeError):
            hash(p)


coeffs = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).filter(lambda f: f != 0)
monos = st.tuples(*(st.integers(0, 5) for _ in range(3)))
polys = st.dictionaries(monos, coeffs, max_size=8).map(
    lambda d: CommPoly(VS, d)
)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_text_round_trip(p):
    assert poly_from_text(VS, poly_to_text(p)) == p


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@pytest.mark.parametrize(
    "p",
    [mk(((1, 0, 0), 3), ((0, 0, 0), Fraction(-1, 7))), parse_trace("tr(xy)"), AbsPoly({(0,): 1})],
    ids=["CommPoly", "TraceExpr", "AbsPoly"],
)
def test_scale_converts_a_float_exactly_and_rejects_a_non_number(p):
    for c in (0.5, 0.1, -3.0):
        q = p.scale(c)
        assert q == p.scale(Fraction(c))
        assert dict(q.terms) == {m: v * Fraction(c) for m, v in p.terms.items()}
        assert all(type(v) is Fraction for v in q.terms.values())
    for bad in (None, object()):
        with pytest.raises(TypeError):
            p.scale(bad)


term_maps = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(3))),
    st.one_of(
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
        st.integers(-(1 << 70), 1 << 70),
    ),
    max_size=6,
)
factors = st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(min_value=-1e3, max_value=1e3),
)


def assert_same(p: CommPoly, q: oracle.Poly) -> None:
    """p equals the oracle's q, and keeps the invariants of LinComb."""
    assert dict(p.terms) == q
    assert p.den > 0 and all(p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1 if p.nums else p.den == 1


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, factors, st.integers(0, 3))
def test_the_shared_arithmetic_agrees_with_the_fraction_oracle(ta, tb, c, n):
    a, b = CommPoly(VS, ta), CommPoly(VS, tb)
    fa, fb = oracle.poly(ta), oracle.poly(tb)
    assert_same(a, fa)
    assert_same(b, fb)
    assert_same(a + b, oracle.add(fa, fb))
    assert_same(a - b, oracle.sub(fa, fb))
    assert_same(-a, oracle.neg(fa))
    assert_same(a * b, oracle.mul(fa, fb))
    assert_same(a.scale(c), oracle.scale(fa, c))
    assert_same(a**n, oracle.power(fa, n, len(VS)))
    assert (a == b) == (fa == fb)
    assert a - a == mk() and (a + b) - b == a


def test_series_inverse_of_geometric_factor():
    D = 6
    s = series_inv_geom(1, 1, D)
    # multiply back by (1 - t^1 u^1): result is 1 up to the cutoff
    one_minus = BiSeries(D, {(0, 0): Fraction(1), (1, 1): Fraction(-1)})
    prod = series_mul(s, one_minus)
    assert prod == BiSeries(D, {(0, 0): Fraction(1)})


def test_series_inv_geom_rejects_constant():
    with pytest.raises(ValueError):
        series_inv_geom(0, 0, 5)


def test_series_degree_mismatch():
    with pytest.raises(ValueError):
        series_mul(BiSeries(3), BiSeries(4))
