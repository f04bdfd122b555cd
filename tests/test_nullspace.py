"""Exact and modular kernels of streamed rational matrices."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from traceforge.nullspace import (
    PRIMES,
    NullStreamError,
    QMatrix,
    _verify_exact,
    crt_pair,
    null_dense,
    null_stream,
    rational_reconstruct,
)


def naive_rank(rows, ncols):
    """Plain fraction Gaussian elimination, written independently of the
    library so the two implementations can check each other."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def annihilates(rows, v):
    for r in rows:
        s = sum(Fraction(val) * v[c] for c, val in r.items())
        if s != 0:
            return False
    return True


frac = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=0, max_value=7))
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if draw(st.booleans()):
                v = draw(frac)
                if v:
                    row[c] = v
        rows.append(row)
    return rows, ncols


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_null_dense_against_naive_elimination(mat):
    rows, ncols = mat
    basis = null_dense(QMatrix(tuple(rows), ncols))
    assert basis.rank == naive_rank(rows, ncols)
    assert basis.dim == ncols - basis.rank
    for v in basis.vectors:
        assert annihilates(rows, v)
        lead = next(x for x in v if x)
        assert lead == 1
    # normalized kernel vectors with equal span would collide; require distinct
    assert len(set(basis.vectors)) == basis.dim


def int_block(rows, ncols):
    """One int64 block: each rational row cleared by its denominator, which
    keeps the kernel."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        den = lcm(1, *(Fraction(v).denominator for v in r.values()))
        for c, v in r.items():
            out[i, c] = int(Fraction(v) * den)
    return out


@settings(max_examples=30, deadline=None)
@given(sparse_matrices())
def test_modular_matches_exact(mat):
    rows, ncols = mat
    B = int_block(rows, ncols)
    exact = null_stream(lambda: iter([B]), ncols, mode="exact")
    modular = null_stream(lambda: iter([B]), ncols, mode="modular")
    assert exact.rank == naive_rank(rows, ncols)
    for v in exact.vectors:
        assert annihilates(rows, v)
    assert set(exact.vectors) == set(modular.vectors)
    assert exact.rank == modular.rank


@st.composite
def split_matrices(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=0, max_value=9))
    # a few columns repeat others, so kernels are often nontrivial
    base = draw(
        st.lists(
            st.lists(st.integers(-(2**20), 2**20), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    M = np.array(base, dtype=np.int64).reshape(nrows, ncols)
    for c in range(1, ncols):
        if draw(st.booleans()):
            M[:, c] = M[:, draw(st.integers(0, c - 1))] * draw(st.integers(-3, 3))
    cuts = sorted(draw(st.lists(st.integers(0, nrows), max_size=4)))
    return M, ncols, cuts


@settings(max_examples=40, deadline=None)
@given(split_matrices())
def test_block_split_gives_identical_basis(mat):
    M, ncols, cuts = mat
    blocks = np.split(M, cuts)
    whole = null_stream(lambda: iter([M]), ncols, mode="exact")
    for mode in ("exact", "modular"):
        assert null_stream(lambda: iter(blocks), ncols, mode=mode) == whole


def test_object_blocks_with_big_entries():
    # column 2 is 2**70 * column 0 - 3 * column 1; entries reach 2**132
    big = 2**70
    rows = [[1, 5, big - 15], [7, -2, 7 * big + 6], [2**62, 1, 2**62 * big - 3]]
    B = np.array(rows, dtype=object)
    want = ((Fraction(1), Fraction(-3, big), Fraction(-1, big)),)
    for mode in ("exact", "modular"):
        for blocks in ([B], [B[:1], B[1:]]):
            basis = null_stream(lambda: iter(blocks), 3, mode=mode)
            assert basis.vectors == want


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_other_integer_dtypes_are_read_exactly(mode):
    # 2**64 - 2 = 2 * (2**63 - 1) fits uint64 only; read as int64 it would
    # wrap to -2 and give a different kernel
    B = np.array([[2**64 - 2, 2**63 - 1]], dtype=np.uint64)
    assert null_stream(lambda: iter([B]), 2, mode=mode).vectors == (
        (Fraction(1), Fraction(-2)),
    )
    C = np.array([[2, 4]], dtype=np.int32)
    assert null_stream(lambda: iter([C]), 2, mode=mode).vectors == (
        (Fraction(1), Fraction(-1, 2)),
    )


def test_verify_exact_takes_the_object_path_for_large_int64_entries():
    # the entries fit int64 but 4 * 2**62 does not: an int64 product wraps
    # the row sum 2**64 to 0, so the bound must send this block to the
    # Python-int matmul
    B = np.array([[2**62] * 4], dtype=np.int64)
    assert (B @ np.ones(4, dtype=np.int64))[0] == 0
    assert not _verify_exact(lambda: iter([B]), [(Fraction(1),) * 4])
    good = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
    assert _verify_exact(lambda: iter([B]), [good])


def test_verify_exact_is_not_fooled_by_int64_min():
    # abs(-2**63) is -2**63 in int64; a bound read from it would let the
    # int64 product -2**64 wrap to 0 and pass a vector outside the kernel
    B = np.array([[-(2**63), 0]], dtype=np.int64)
    assert not _verify_exact(lambda: iter([B]), [(Fraction(2), Fraction(1))])
    assert _verify_exact(lambda: iter([B]), [(Fraction(0), Fraction(1))])


@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize(
    "block",
    [
        np.array([[0.5, 0.5]]),
        np.array([[1]], dtype=np.int64),
        np.array([1, 0], dtype=np.int64),
        np.array([[True, False]]),
        [[1, 0]],
    ],
    ids=["float", "narrow", "one-dimensional", "bool", "list"],
)
def test_malformed_blocks_rejected(mode, block):
    calls = []

    def rows():
        calls.append(1)
        return iter([block])

    with pytest.raises(ValueError, match="row blocks"):
        null_stream(rows, 2, mode=mode)
    assert len(calls) == 1  # rejected on the first pass, before any prime


def test_adversarial_prime_divisible_rows():
    # the first two primes see a zero row and report too large a kernel;
    # pivot-set voting must discard them in favor of later primes
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    basis = null_stream(lambda: iter([B]), 2, mode="modular", prime_budget=6)
    assert basis.dim == 1
    assert basis.vectors[0] == (Fraction(1), Fraction(-1))


def test_modular_budget_too_small_rejected():
    with pytest.raises(ValueError):
        null_stream(lambda: iter([]), 1, mode="modular", prime_budget=1)


def test_modular_exhaustion_raises():
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    with pytest.raises(NullStreamError):
        null_stream(lambda: iter([B]), 2, mode="modular", prime_budget=2)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        null_stream(lambda: iter([]), 1, mode="float")


def test_crt_pair():
    r, m = crt_pair(2, 3, 3, 5)
    assert m == 15
    assert r % 3 == 2 and r % 5 == 3


def test_rational_reconstruct_round_trip():
    m = 1
    for p in PRIMES[:4]:
        m *= p
    for f in (Fraction(3, 7), Fraction(-22, 41), Fraction(5), Fraction(0)):
        a = (f.numerator * pow(f.denominator, -1, m)) % m
        assert rational_reconstruct(a, m) == f


def test_rational_reconstruct_out_of_range():
    # residue of 1/3 mod 7 cannot be told apart from small integers
    assert rational_reconstruct(5, 7) in (Fraction(5), Fraction(-2), Fraction(1, 3), None)
    # a huge numerator over a tiny modulus must fail or round-trip exactly
    got = rational_reconstruct(6, 7)
    if got is not None:
        assert (got.numerator - 6 * got.denominator) % 7 == 0
