"""PackedPoly arithmetic against the CommPoly oracle, and the evaluated-side
raising map against evaluation of the trace-level map."""

from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge.genmat import (
    VARSET18,
    EvalCache,
    eval_delta,
    eval_trace_expr_packed,
)
from traceforge.glcat import catalog
from traceforge.packedpoly import (
    NX,
    NVARS,
    NY,
    PackedCapacityError,
    PackedPoly,
    SumTable,
    XCAP,
    YCAP,
    _combine,
    _den_gcd,
    at_zero,
    pack_exponents,
    content,
    sum_scaled,
)
from traceforge.polyring import CommPoly
from traceforge.tracelang import TraceExpr, delta, delta1
from trace_oracle import make_trace_monomial

LIMIT = 1 << 62


def check_invariants(p: PackedPoly) -> None:
    assert p.den > 0
    assert bool(np.all(p.keys[1:] > p.keys[:-1]))
    assert bool(np.all(p.coeffs != 0))
    values = [int(c) for c in p.coeffs]
    content = 0
    for v in values:
        content = gcd(content, v)
    assert gcd(content, p.den) == 1 or p.is_zero()
    biggest = max((abs(v) for v in values), default=0)
    assert p.bound >= biggest
    # object dtype exactly when a coefficient reaches the int64 headroom
    assert p.is_big() == (biggest >= LIMIT)


# exponents stay small so that every product fits the packed fields
exponents = st.tuples(
    *([st.integers(0, 2)] * NX),
    *([st.sampled_from((0, 0, 0, 0, 1))] * (NVARS - NX)),
).filter(lambda e: sum(e[NX:]) <= 3)

numerators = st.one_of(
    st.integers(-12, 12),
    st.integers(LIMIT - 4, LIMIT + 4),
    st.integers(-LIMIT - 4, -LIMIT + 4),
    st.integers(-(1 << 70), 1 << 70),
)
denominators = st.sampled_from((1, 1, 1, 2, 3, 6, 1 << 40))
rationals = st.builds(Fraction, numerators, denominators)

term_dicts = st.dictionaries(exponents, rationals, max_size=6)


def make(terms: dict) -> tuple[PackedPoly, CommPoly]:
    p = PackedPoly.from_terms(terms.items())
    check_invariants(p)
    return p, CommPoly(VARSET18, terms)


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts)
def test_add_and_mul_match_commpoly(ta, tb):
    (pa, ca), (pb, cb) = make(ta), make(tb)
    s = pa.add(pb)
    check_invariants(s)
    assert s.to_comm(VARSET18) == ca + cb
    m = pa.mul(pb)
    check_invariants(m)
    assert m.to_comm(VARSET18) == ca * cb


@settings(max_examples=150, deadline=None)
@given(term_dicts, rationals)
def test_scale_matches_commpoly(ta, q):
    pa, ca = make(ta)
    s = pa.scale(q)
    check_invariants(s)
    assert s.to_comm(VARSET18) == ca.scale(q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(term_dicts, rationals), max_size=5))
def test_sum_scaled_matches_commpoly(items):
    expected = CommPoly.zero(VARSET18)
    pairs = []
    for terms, q in items:
        p, c = make(terms)
        pairs.append((p, q))
        expected = expected + c.scale(q)
    got = sum_scaled(pairs)
    check_invariants(got)
    assert got.to_comm(VARSET18) == expected


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts, st.sampled_from((1, 2, 6, 1 << 40)))
def test_from_column_reads_a_dense_column(ta, tb, scale):
    # p as an integer column over a superset of its keys, scaled up: the
    # zeros are dropped, the scale cancels and the degrees come from the keys
    p, _ = make(ta)
    other, _ = make(tb)
    keys = np.union1d(p.keys, other.keys).astype(np.int64)
    column = np.zeros(len(keys), dtype=object)
    column[np.searchsorted(keys, p.keys)] = p.coeffs.astype(object) * scale
    if max(map(abs, column), default=0) < LIMIT:
        column = column.astype(np.int64)
    got = PackedPoly.from_column(keys, column, p.den * scale)
    check_invariants(got)
    assert got == p
    assert (got.xdeg, got.ydeg) == (p.xdeg, p.ydeg)


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts, st.integers(0, NVARS - 1))
def test_at_zero_drops_the_terms_of_one_variable(ta, tb, var):
    # the terms free of var, normalized again (dropping terms can leave a
    # content that the denominator shares), and a ring homomorphism
    (pa, _), (pb, _) = make(ta), make(tb)
    got = at_zero(pa, var)
    check_invariants(got)
    assert got == PackedPoly.from_terms((e, c) for e, c in ta.items() if e[var] == 0)
    assert at_zero(pa.mul(pb), var) == got.mul(at_zero(pb, var))


def test_sum_scaled_batches_agree(monkeypatch):
    import traceforge.packedpoly as pp

    polys = [
        PackedPoly.from_terms(
            [((i % 3, 0, 0) + (0,) * 14 + (j % 2,), Fraction(i - j, 1 + j)) for j in range(4)]
        )
        for i in range(9)
    ]
    pairs = [(p, Fraction(k + 1, 2)) for k, p in enumerate(polys)]
    one_batch = sum_scaled(pairs)
    monkeypatch.setattr(pp, "_BATCH_TERMS", 3)
    assert sum_scaled(pairs) == one_batch
    check_invariants(one_batch)


def _var(i: int, power: int = 1) -> tuple[int, ...]:
    exps = [0] * NVARS
    exps[i] = power
    return tuple(exps)


# (a, b) term lists: generic rationals; a*b whose cross terms x0*y0 come from
# different rows of the smaller factor and cancel; coefficients past 2**62
CHUNK_CASES = {
    "rational": (
        {_var(0): Fraction(1, 2), _var(1): Fraction(-3), _var(NX): Fraction(5, 6),
         _var(NX + 1): Fraction(7), _var(2, 2): Fraction(-1, 3)},
        {_var(0): Fraction(2), _var(NX + 2): Fraction(-5, 4), _var(1, 2): Fraction(9)},
    ),
    "cancelling": (
        {_var(0): Fraction(1), _var(NX): Fraction(1), _var(NX + 1): Fraction(1),
         _var(1): Fraction(1)},
        {_var(0): Fraction(1), _var(NX): Fraction(-1), _var(NX + 2): Fraction(2)},
    ),
    "object": (
        {_var(0): Fraction(LIMIT + 1), _var(NX): Fraction(-(1 << 70), 3),
         _var(1): Fraction(LIMIT - 1)},
        {_var(0): Fraction(LIMIT + 3), _var(NX + 1): Fraction(5), _var(2): Fraction(-1)},
    ),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
@pytest.mark.parametrize("cap", [1, 4, 7])
def test_mul_chunks_agree(case, cap, monkeypatch):
    import traceforge.packedpoly as pp

    (pa, ca), (pb, cb) = (make(t) for t in CHUNK_CASES[case])
    whole = pa.mul(pb)
    monkeypatch.setattr(pp, "_MUL_TERMS", cap)
    for x, y in ((pa, pb), (pb, pa)):
        chunked = x.mul(y)
        check_invariants(chunked)
        assert chunked == whole
        assert chunked.to_comm(VARSET18) == ca * cb
    if case == "cancelling":
        assert pack_exponents(_var(0)) + pack_exponents(_var(NX)) not in whole.keys
    if case == "object":
        assert whole.is_big()


def outer_sum_mul(a: PackedPoly, b: PackedPoly) -> PackedPoly:
    """a * b as products were formed before SumTable: the outer sum of the
    keys, one sorted run per term of the smaller factor, merged and summed
    by one stable sort.  The oracle for the table kernel."""
    if a.is_zero() or b.is_zero():
        return PackedPoly.zero()
    xdeg, ydeg = a.xdeg + b.xdeg, a.ydeg + b.ydeg
    if xdeg > XCAP or ydeg > YCAP:
        raise PackedCapacityError(f"product degree ({xdeg},{ydeg})")
    a, b = (a, b) if a.nnz >= b.nnz else (b, a)
    big = a.bound * b.bound * min(a.nnz, b.nnz) >= LIMIT or a.is_big() or b.is_big()
    ca = a.coeffs.astype(object) if big else a.coeffs
    cb = b.coeffs.astype(object) if big else b.coeffs
    keys = (b.keys[:, None] + a.keys[None, :]).ravel()
    coeffs = (cb[:, None] * ca[None, :]).ravel()
    return _combine(keys, coeffs, a.den * b.den, xdeg, ydeg)


def table_products(polys: list[PackedPoly], factor: PackedPoly) -> list[PackedPoly]:
    table = SumTable(polys, factor)
    return [table.product(p)[1] for p in polys]


def check_products(polys: list[PackedPoly], factor: PackedPoly) -> None:
    """The products of one SumTable, and the one-product mul, equal the
    oracle byte for byte, and the contents predict every denominator: by
    Gauss's lemma it is dd / gcd(cc, dd) for the product dd of the
    denominators and cc of the contents."""
    for p, got in zip(polys, table_products(polys, factor), strict=True):
        want = outer_sum_mul(p, factor)
        check_invariants(got)
        assert got.to_bytes() == want.to_bytes()
        assert p.mul(factor).to_bytes() == want.to_bytes()
        dd, cc = p.den * factor.den, content(p) * content(factor)
        assert dd // gcd(cc, dd) == want.den


@settings(max_examples=200, deadline=None)
@given(st.lists(term_dicts, min_size=1, max_size=5), term_dicts, st.data())
def test_sum_table_matches_the_outer_sum_oracle(dicts, factor_terms, data):
    polys = [make(t)[0] for t in dicts]
    # a group may repeat one polynomial, or be the factor times itself
    polys += data.draw(st.lists(st.sampled_from(polys), max_size=2))
    factor = make(factor_terms)[0]
    if data.draw(st.booleans()):
        factor = polys[0]
    check_products(polys, factor)


# exponents up to the field capacities, so that products can overflow them
deep_exponents = st.tuples(
    st.integers(0, XCAP), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, YCAP), st.integers(0, 1), *([st.just(0)] * (NY - 2)),
).filter(lambda e: sum(e[:NX]) <= XCAP and sum(e[NX:]) <= YCAP)
deep_dicts = st.dictionaries(deep_exponents, rationals, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(deep_dicts, min_size=1, max_size=3), deep_dicts)
def test_sum_table_checks_capacity_before_building(dicts, factor_terms):
    import traceforge.packedpoly as pp

    polys = [make(t)[0] for t in dicts]
    factor = make(factor_terms)[0]
    over = not factor.is_zero() and any(
        not p.is_zero() and (p.xdeg + factor.xdeg > XCAP or p.ydeg + factor.ydeg > YCAP)
        for p in polys
    )
    if not over:
        check_products(polys, factor)
        return
    with mock.patch.object(pp, "_sum_table", side_effect=AssertionError("table built")):
        with pytest.raises(PackedCapacityError):
            table_products(polys, factor)
    with pytest.raises(PackedCapacityError):
        outer_sum_mul(next(p for p in polys if p.xdeg + factor.xdeg > XCAP
                           or p.ydeg + factor.ydeg > YCAP), factor)


@pytest.mark.parametrize("cap", [1, 4, 7, 1 << 20])
def test_sum_table_blocks_agree(cap, monkeypatch):
    # every CHUNK_CASES polynomial, and a zero one, times each factor: the
    # sum table is built, and the coefficient products scattered, in
    # blocks of at most cap entries
    import traceforge.packedpoly as pp

    monkeypatch.setattr(pp, "_MUL_TERMS", cap)
    polys = [make(t)[0] for case in CHUNK_CASES.values() for t in case]
    polys.append(PackedPoly.zero())
    for factor in polys:
        check_products(polys, factor)


@settings(max_examples=150, deadline=None)
@given(st.lists(term_dicts, min_size=1, max_size=4), st.sampled_from((1, 2, 6)), st.data())
def test_combine_ignores_input_order(dicts, den, data):
    polys = [PackedPoly.from_terms(t.items()) for t in dicts]
    big = sum(p.bound for p in polys) >= LIMIT or any(p.is_big() for p in polys)
    keys = np.concatenate([p.keys for p in polys])
    coeffs = np.concatenate([p.coeffs.astype(object) if big else p.coeffs for p in polys])
    xdeg = max(p.xdeg for p in polys)
    ydeg = max(p.ydeg for p in polys)
    runs = _combine(keys, coeffs, den, xdeg, ydeg)
    check_invariants(runs)
    perm = np.array(data.draw(st.permutations(range(len(keys)))), dtype=np.intp)
    shuffled = _combine(keys[perm], coeffs[perm], den, xdeg, ydeg)
    assert shuffled.den == runs.den
    assert np.array_equal(shuffled.keys, runs.keys)
    assert shuffled.coeffs.dtype == runs.coeffs.dtype
    assert np.array_equal(shuffled.coeffs, runs.coeffs)


@st.composite
def coefficient_arrays(draw):
    """int64 coefficients below 2**62 sharing a drawn factor, and a
    denominator that often shares part of it."""
    f = draw(st.integers(1, 2**40))
    cs = draw(st.lists(st.integers(-(LIMIT - 1) // f, (LIMIT - 1) // f), max_size=12))
    den = draw(st.one_of(st.integers(1, 2**70), st.integers(1, 2**20).map(lambda k: k * f)))
    return np.array([c * f for c in cs], dtype=np.int64), den


@settings(max_examples=200, deadline=None)
@given(coefficient_arrays())
def test_den_gcd_matches_the_python_loop(arrays):
    coeffs, den = arrays
    want = den
    for c in coeffs.tolist():
        want = gcd(want, c)
    assert _den_gcd(coeffs, den) == want
    assert _den_gcd(coeffs.astype(object), den) == want


# -- evaluated-side raising maps ---------------------------------------------

_CACHE = EvalCache()

short_words = st.text(alphabet="xy", min_size=2, max_size=5)
trace_monos = (
    st.lists(short_words, min_size=1, max_size=2)
    .filter(lambda ws: sum(w.count("y") for w in ws) <= YCAP)
    .map(make_trace_monomial)
)
trace_exprs = st.dictionaries(
    trace_monos, st.fractions(max_denominator=5).filter(bool), min_size=1, max_size=4
).map(TraceExpr)


@settings(max_examples=60, deadline=None)
@given(trace_exprs)
def test_evaluated_maps_match_trace_maps(e):
    ev = eval_trace_expr_packed(e, _CACHE)
    assert eval_delta(ev) == eval_trace_expr_packed(delta(e), _CACHE)


def test_evaluated_maps_on_lowered_catalog_vectors():
    # delta1 of a highest weight vector of weight (l1, l2), l1 > l2, is not
    # highest weight, so the raising map acts nontrivially
    lowered = 0
    for mod in catalog(_CACHE):
        e = delta1(mod.hwv)
        ev = eval_trace_expr_packed(e, _CACHE)
        if ev.is_zero():  # weight (k, k): the module is one-dimensional
            continue
        de = eval_delta(ev)
        assert not de.is_zero()
        assert de == eval_trace_expr_packed(delta(e), _CACHE)
        # coefficients large enough that the image needs Python integers
        big = ev.scale(1 << 61)
        assert big.is_big() and eval_delta(big) == de.scale(1 << 61)
        lowered += 1
    assert lowered >= 6


def test_eval_delta_raises_on_x_field_overflow():
    exps = [0] * NVARS
    exps[0] = XCAP  # x11 at capacity
    exps[NX] = 1  # y11
    p = PackedPoly.from_terms([(tuple(exps), Fraction(1))])
    assert p.keys[0] == pack_exponents(exps)
    with pytest.raises(PackedCapacityError):
        eval_delta(p)
