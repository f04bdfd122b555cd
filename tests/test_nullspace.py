"""Exact kernels of integer and rational matrices, and the modular prime
loop on the Gram matrix of an integer matrix mod p."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from traceforge import nullspace
from traceforge.nullspace import (
    PRIMES,
    NullStreamError,
    _gram,
    _in_kernel,
    _rref_mod,
    crt_pair,
    modular_kernel,
    null_stream,
    rational_reconstruct,
)

from kernel_oracle import QMatrix, _clear_row, null_dense


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


def int_matrix(rows, ncols):
    """An int64 matrix: each rational row cleared by its denominator, which
    keeps the kernel."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        den = lcm(1, *(Fraction(v).denominator for v in r.values()))
        for c, v in r.items():
            out[i, c] = int(Fraction(v) * den)
    return out


def gram_modular(B):
    """modular_kernel on the Gram matrix G of B mod p, each candidate proven
    by the exact check G z = 0."""
    G = _gram(B)
    return modular_kernel(
        lambda p: _rref_mod(G % p, p), B.shape[1], lambda vectors: _in_kernel(G, vectors)
    )


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_the_integer_kernel_is_the_fraction_kernel(mat):
    # numerators over one positive denominator with no common factor, the
    # first nonzero numerator equal to the denominator, and the vectors of
    # kernel() exactly
    from math import gcd

    rows, ncols = mat
    ech = nullspace._IntEchelon(ncols)
    for row in rows:
        ech.add_row(_clear_row(row))
    ints = ech.int_kernel()
    assert len(ints) == ncols - ech.rank
    for nums, den in ints:
        assert den > 0 and gcd(den, *nums) == 1
        assert next(x for x in nums if x) == den
        assert all(sum(v * nums[c] for c, v in row.items()) == 0 for row in rows)
    want = null_dense(QMatrix(tuple(rows), ncols)).vectors
    assert [tuple(Fraction(x, d) for x in nums) for nums, d in ints] == list(want)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices())
def test_modular_matches_exact(mat):
    rows, ncols = mat
    B = int_matrix(rows, ncols)
    exact = null_stream(B)
    modular = gram_modular(B)
    assert exact.rank == naive_rank(rows, ncols)
    for v in exact.vectors:
        assert annihilates(rows, v)
    assert set(exact.vectors) == set(modular.vectors)
    assert exact.rank == modular.rank


def test_object_blocks_with_big_entries():
    # column 2 is 2**70 * column 0 - 3 * column 1; entries reach 2**132
    big = 2**70
    rows = [[1, 5, big - 15], [7, -2, 7 * big + 6], [2**62, 1, 2**62 * big - 3]]
    B = np.array(rows, dtype=object)
    want = ((Fraction(1), Fraction(-3, big), Fraction(-1, big)),)
    assert null_stream(B).vectors == want
    assert gram_modular(B).vectors == want


@pytest.mark.parametrize(
    "B, good, bad",
    [
        # in int64, abs(-2**63) is -2**63 and the product -2**64 wraps to 0
        ([[-(2**63), 0]], (0, 1), (2, 1)),
        # the entries fit int64 but the row sum 4 * 2**62 wraps to 0
        ([[2**62] * 4], (1, -1, 0, 0), (1, 1, 1, 1)),
    ],
    ids=["int64-min", "wrapping-row-sum"],
)
def test_kernel_check_rejects_non_kernel_vectors(B, good, bad):
    G = _gram(np.array(B, dtype=np.int64))
    assert _in_kernel(G, [tuple(map(Fraction, good))])
    assert not _in_kernel(G, [tuple(map(Fraction, bad))])


def perturbing(monkeypatch, times):
    """Make the first `times` reconstructions return a perturbed vector."""
    reconstruct = nullspace._reconstruct_vectors
    calls = []

    def perturbed(kernels, ncols):
        vectors = reconstruct(kernels, ncols)
        calls.append(sorted(kernels))
        if len(calls) <= times:
            return [(v[0], v[1] + 1, *v[2:]) for v in vectors]
        return vectors

    monkeypatch.setattr(nullspace, "_reconstruct_vectors", perturbed)
    return calls


RELATED_COLUMNS = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)


def test_modular_candidate_failing_the_check_is_never_returned(monkeypatch):
    calls = perturbing(monkeypatch, times=len(PRIMES))
    with pytest.raises(NullStreamError):
        gram_modular(RELATED_COLUMNS)
    assert calls  # the bad vector was offered, and refused


def test_modular_check_failure_draws_more_primes(monkeypatch):
    calls = perturbing(monkeypatch, times=1)
    basis = gram_modular(RELATED_COLUMNS)
    assert basis.vectors == ((Fraction(1), Fraction(-1), Fraction(0)),)
    assert len(calls) == 2 and len(calls[1]) > len(calls[0])


# "exact" is null_stream; "modular" is the Gram matrix that gram_modular
# runs the prime loop on mod p (the package runs it on values at points)
@pytest.mark.parametrize("mode", ["exact", "modular"])
@pytest.mark.parametrize(
    "M",
    [
        np.array([[0.5, 0.5]]),
        np.array([[1, 0]], dtype=np.int32),
        np.array([1, 0], dtype=np.int64),
        np.array([[True, False]]),
        [[1, 0]],
        np.array([[1, 0]], dtype=np.uint64),
    ],
    ids=["float", "narrow", "one-dimensional", "bool", "list", "uint64"],
)
def test_malformed_blocks_rejected(mode, M):
    # only int64 and object arrays are read: no other dtype (a narrower
    # integer, uint64, bool, float) is converted
    with pytest.raises(ValueError, match="M must be"):
        null_stream(M) if mode == "exact" else _gram(M)


def rowwise_rref(M, p):
    """RREF mod p of M that reduces one row at a time, kept as an oracle for
    the RREF of the Gram matrix of M in the library."""
    ncols = M.shape[1]
    R = np.zeros((0, ncols), dtype=np.int64)
    pivcols = []
    for row in np.mod(M, p).astype(np.int64):
        r = row
        if R.shape[0]:
            r = (r - (r[pivcols] @ R) % p) % p
        nz = np.flatnonzero(r)
        if not len(nz):
            continue
        c = int(nz[0])
        r = (r * pow(int(r[c]), p - 2, p)) % p
        if R.shape[0]:
            colvals = R[:, c].copy()
            if colvals.any():
                R = (R - np.outer(colvals, r)) % p
        R = np.vstack([R, r[None, :]])
        pivcols.append(c)
    order = np.argsort(pivcols, kind="stable")
    return tuple(pivcols[i] for i in order), R[order]


def with_dependent_columns(M, rng, combine=lambda u, v: u - v):
    """Overwrite every third column by a combination of two earlier ones."""
    M = M.copy()
    for c in range(2, M.shape[1], 3):
        a, b = rng.integers(0, c, size=2)
        M[:, c] = combine(M[:, a], M[:, b])
    return M


def rref_cases(p):
    rng = np.random.default_rng(p)
    top = 2**62
    near = rng.integers(top - 2**20, top, size=(40, 9)) * rng.choice([-1, 1], size=(40, 9))
    near = with_dependent_columns(near, rng, lambda u, v: -u)  # u - v could wrap
    # every entry is p - 1 mod p, or 0: residues at the top of the range
    minus_one = rng.choice([0, p - 1, -1, 2 * p - 1], size=(30, 8)).astype(np.int64)
    tall = with_dependent_columns(rng.integers(-(2**40), 2**40, size=(5000, 7)), rng)
    big = [
        [int(x) * 2**70 + int(y) for x, y in zip(row, rng.integers(-9, 9, size=5))]
        for row in rng.integers(-(2**62), 2**62, size=(12, 5))
    ]
    big = np.array(big, dtype=object)
    big[:, 4] = big[:, 0] * 3 - big[:, 1]  # entries up to about 2**134
    assert max(abs(int(x)) for x in big.flat) >= 2**132
    return {
        "near-2^62": near,
        "p-1": minus_one,
        "tall": tall,
        "object": big,
        "zero-rows": np.vstack([np.zeros((3, 4), dtype=np.int64), tall[:6, :4]]),
        "no-columns": np.zeros((3, 0), dtype=np.int64),
    }


@pytest.mark.parametrize("p", PRIMES[:3])
@pytest.mark.parametrize(
    "case", ["near-2^62", "p-1", "tall", "object", "zero-rows", "no-columns"]
)
def test_gram_rref_matches_rowwise_rref(p, case):
    M = rref_cases(p)[case]
    piv, R = _rref_mod(_gram(M) % p, p)
    want_piv, want_R = rowwise_rref(M, p)
    assert piv == want_piv
    assert R.dtype == np.int64 and np.array_equal(R, want_R)


def test_isotropic_rows_lose_rank_only_at_the_primes_they_are_isotropic_for():
    # 1 + a**2 + b**2 is divisible by the first two primes, so there the Gram
    # matrix of the single column is 0 although the column is not
    a, b = 337769089571796, 144756314570731
    for p in PRIMES[:2]:
        assert (1 + a * a + b * b) % p == 0
    B = np.array([[1], [a], [b]], dtype=np.int64)
    G = _gram(B)
    assert [len(_rref_mod(G % p, p)[0]) for p in PRIMES[:3]] == [0, 0, 1]
    exact = null_stream(B)
    modular = gram_modular(B)
    assert exact.dim == modular.dim == 0


def test_primes_fit_the_exact_float64_gram_bound():
    # residues below 2**25 keep every product below 2**50, so the int64
    # echelon of G mod p sums a row times R without overflow
    assert all(p < 2**25 for p in PRIMES)


def gram_cases():
    rng = np.random.default_rng(7)
    top = 2**62
    near = rng.integers(top - 2**20, top, size=(40, 6))
    near *= rng.choice([-1, 1], size=(40, 6))
    heads = rng.integers(-(2**63), 2**63, size=(7, 3))
    big = np.array([[int(x) * 2**70 + 3 for x in row] for row in heads], dtype=object)
    big[0, 0] = 2**134
    tall = rng.integers(-(2**40), 2**40, size=(nullspace._GRAM_ROWS + 5, 4))
    fold = np.full((nullspace._FOLD_ROWS + 5, 1), 2**62 - 1, dtype=np.int64)
    fold[::3] = -(2**63)
    small = rng.integers(-(2**62), 2**62, size=(8, 3)).astype(object)
    return {
        "near-2^62": near,
        "int64-min": np.array([[-(2**63), 0]], dtype=np.int64),
        # entries of the uint64 range, past int64, held as Python ints
        "uint64": np.array([[2**64 - 1, 5], [2**63, 2**32]], dtype=object),
        # entries of the int32 range: two limbs
        "int32": rng.integers(-(2**31), 2**31, size=(9, 3)),
        "object": big,
        # rows of int64-range entries between rows of big entries
        "mixed": np.vstack([big[:3], small, big[3:]]),
        "tall": tall,
        "past-fold": fold,
        "zero-rows": np.zeros((3, 4), dtype=np.int64),
        "no-columns": np.zeros((3, 0), dtype=np.int64),
    }


@pytest.mark.parametrize(
    "case",
    ["near-2^62", "int64-min", "uint64", "int32", "object", "mixed", "tall",
     "past-fold", "zero-rows", "no-columns"],
)
def test_gram_is_exact(case):
    M = gram_cases()[case]
    ncols = M.shape[1]
    want = np.zeros((ncols, ncols), dtype=object) + M.astype(object).T.dot(M.astype(object))
    G = _gram(M)
    assert G.shape == (ncols, ncols)
    assert all(type(x) is int for x in G.flat)
    assert np.array_equal(G, want)


def test_adversarial_prime_divisible_rows(monkeypatch):
    # the first two primes see a zero row and report too large a kernel;
    # pivot-set voting must discard them in favor of later primes
    monkeypatch.setattr(nullspace, "DEFAULT_PRIME_BUDGET", 6)
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    basis = gram_modular(B)
    assert basis.dim == 1
    assert basis.vectors[0] == (Fraction(1), Fraction(-1))


def test_modular_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(nullspace, "DEFAULT_PRIME_BUDGET", 2)
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    with pytest.raises(NullStreamError):
        gram_modular(B)


@pytest.mark.parametrize("col", [-1, 3])
def test_qmatrix_column_out_of_range_rejected(col):
    rows = ({0: Fraction(1)}, {col: Fraction(2)})
    with pytest.raises(ValueError, match="out of range"):
        QMatrix(rows, 3)
    with pytest.raises(ValueError, match="out of range"):
        QMatrix(rows[:1], 3)._replace(rows=rows)
    assert QMatrix(rows[:1], 1).rows == rows[:1]  # column 0 of 1 is in range


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
