"""Formal trace expressions: cyclic words, derivations, substitutions,
and the text grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge.tracelang import (
    NcPoly,
    X,
    Y,
    NotHomogeneous,
    TraceParseError,
    TracelessViolation,
    bidegree,
    commutator,
    cyclic_normalize,
    delta,
    delta1,
    format_trace_expr,
    parse_trace,
    trace_of,
)
from trace_oracle import make_trace_monomial, subst_h

words = st.text(alphabet="xy", min_size=2, max_size=8)


def test_cyclic_normalize_least_rotation():
    assert cyclic_normalize("yx") == "xy"
    assert cyclic_normalize("yxx") == "xxy"
    assert cyclic_normalize("xyxy") == "xyxy"


@settings(max_examples=100, deadline=None)
@given(words, st.integers(0, 7))
def test_cyclic_normalize_rotation_invariant(w, k):
    k %= len(w)
    assert cyclic_normalize(w) == cyclic_normalize(w[k:] + w[:k])


def test_trace_monomial_sorts_and_normalizes():
    m = make_trace_monomial(["yx", "xxy"])
    assert m == ("xy", "xxy")


def test_trace_of_length_one_raises():
    with pytest.raises(TracelessViolation):
        trace_of(X)
    with pytest.raises(TracelessViolation):
        trace_of(X + Y)


def test_trace_of_constant_term_raises():
    one = X**0
    with pytest.raises(TracelessViolation):
        trace_of(one)


def test_ncpoly_rejects_letters_other_than_x_and_y():
    with pytest.raises(ValueError):
        NcPoly({"xz": Fraction(1)})


def test_negative_power_raises():
    with pytest.raises(ValueError):
        X**-1


def test_commutator_expands():
    c = commutator(X, Y)
    e = trace_of(c * c * c)
    # tr([x,y]^3) expands into eight length-6 cyclic words
    assert all(len(w) == 6 for mono, _ in e.terms.items() for w in mono)
    assert bidegree(e) == (3, 3)


def simple_exprs():
    xy = trace_of(X * Y)
    xxy = trace_of(X * X * Y)
    cc = trace_of(commutator(X, Y) * commutator(X, Y))
    return [xy, xxy, cc, xy * xy - xxy.scale(Fraction(1, 2)), cc * xy]


@pytest.mark.parametrize("d", [delta, delta1])
def test_derivation_leibniz(d):
    es = simple_exprs()
    for e1 in es:
        for e2 in es:
            assert d(e1 * e2) == d(e1) * e2 + e1 * d(e2)


def test_derivations_shift_bidegree():
    e = trace_of(X * Y * X * Y)
    assert bidegree(e) == (2, 2)
    assert bidegree(delta(e)) == (3, 1)
    assert bidegree(delta1(e)) == (1, 3)


def test_subst_h_is_multiplicative():
    es = simple_exprs()
    for e1 in es:
        for e2 in es:
            assert subst_h(e1 * e2) == subst_h(e1) * subst_h(e2)
    e = trace_of(X * Y) - trace_of(X * X)
    assert subst_h(e) == trace_of(X * (X + Y)) - trace_of(X * X)


def test_bidegree_mixed_raises():
    e = trace_of(X * Y) + trace_of(X * X)
    with pytest.raises(NotHomogeneous):
        bidegree(e)


def test_bidegree_zero():
    z = trace_of(X * Y) - trace_of(X * Y)
    assert bidegree(z) == (0, 0)


def test_parse_format_round_trip_samples():
    for text in [
        "tr(xy)",
        "tr(xxy) - tr(xyy)",
        "3*tr(xyxy) - 1/2*tr(xxyy)",
        "tr((xy-yx)^3x)",
        "tr((xy-yx)^2(xxyy - xyyx - yxxy + yyxx))",
    ]:
        e = parse_trace(text)
        assert parse_trace(format_trace_expr(e)) == e


def test_parse_products_of_traces():
    e = parse_trace("tr(xx)*tr(yy) - tr(xy)^2")
    m1 = make_trace_monomial(["xx", "yy"])
    m2 = make_trace_monomial(["xy", "xy"])
    assert e.terms == {m1: Fraction(1), m2: Fraction(-1)}


def test_parse_error_position():
    with pytest.raises(TraceParseError):
        parse_trace("tr(x")
    with pytest.raises(TraceParseError):
        parse_trace("tr()")
    with pytest.raises(TraceParseError):
        parse_trace("tr(xz)")


def test_format_rejects_constant_terms():
    from traceforge.tracelang import TraceExpr

    with pytest.raises(ValueError):
        format_trace_expr(TraceExpr({(): Fraction(1)}))
