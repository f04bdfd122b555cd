"""Exact and modular kernels of streamed rational matrices."""

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
    QMatrix,
    _blocks,
    _gram,
    _in_kernel,
    _rref_mod,
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
    exact = null_stream([B], ncols, mode="exact")
    modular = null_stream([B], ncols, mode="modular")
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
    whole = null_stream([M], ncols, mode="exact")
    for mode in ("exact", "modular"):
        assert null_stream(blocks, ncols, mode=mode) == whole


def test_object_blocks_with_big_entries():
    # column 2 is 2**70 * column 0 - 3 * column 1; entries reach 2**132
    big = 2**70
    rows = [[1, 5, big - 15], [7, -2, 7 * big + 6], [2**62, 1, 2**62 * big - 3]]
    B = np.array(rows, dtype=object)
    want = ((Fraction(1), Fraction(-3, big), Fraction(-1, big)),)
    for mode in ("exact", "modular"):
        for blocks in ([B], [B[:1], B[1:]]):
            basis = null_stream(blocks, 3, mode=mode)
            assert basis.vectors == want


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_other_integer_dtypes_are_read_exactly(mode):
    # 2**64 - 2 = 2 * (2**63 - 1) fits uint64 only; read as int64 it would
    # wrap to -2 and give a different kernel
    B = np.array([[2**64 - 2, 2**63 - 1]], dtype=np.uint64)
    assert null_stream([B], 2, mode=mode).vectors == (
        (Fraction(1), Fraction(-2)),
    )
    C = np.array([[2, 4]], dtype=np.int32)
    assert null_stream([C], 2, mode=mode).vectors == (
        (Fraction(1), Fraction(-1, 2)),
    )


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
    B = np.array(B, dtype=np.int64)
    G = _gram([B], B.shape[1])
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
        null_stream([RELATED_COLUMNS], 3, mode="modular")
    assert calls  # the bad vector was offered, and refused


def test_modular_check_failure_draws_more_primes(monkeypatch):
    calls = perturbing(monkeypatch, times=1)
    basis = null_stream([RELATED_COLUMNS], 3, mode="modular")
    assert basis.vectors == ((Fraction(1), Fraction(-1), Fraction(0)),)
    assert len(calls) == 2 and len(calls[1]) > len(calls[0])


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
    read_past = []

    def blocks():
        yield block
        read_past.append(1)
        yield np.zeros((1, 2), dtype=np.int64)

    with pytest.raises(ValueError, match="row blocks"):
        null_stream(blocks(), 2, mode=mode)
    assert not read_past  # rejected as it is read, before any later block


@pytest.mark.parametrize("mode", ["exact", "modular"])
def test_row_source_is_called_once(mode):
    # a one-shot generator of two blocks: a second pass would see no rows
    blocks = (B for B in (RELATED_COLUMNS[:1], RELATED_COLUMNS[1:]))
    assert null_stream(blocks, 3, mode=mode).vectors == (
        (Fraction(1), Fraction(-1), Fraction(0)),
    )
    assert next(blocks, None) is None


def rowwise_rref(blocks, ncols, p):
    """Streamed RREF mod p of M that reduces one row at a time, kept as an
    oracle for the RREF of the Gram matrix of M in the library."""
    R = np.zeros((0, ncols), dtype=np.int64)
    pivcols = []
    for B in _blocks(blocks, ncols):
        B = np.mod(B, p).astype(np.int64, copy=False)
        if R.shape[0]:
            B = (B - (B[:, pivcols] @ R) % p) % p
        mask = np.any(B, axis=1)
        if not mask.any():
            continue
        for row in B[mask]:
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
        "near-2^62": (9, [near[:17], near[17:]]),
        "p-1": (8, [minus_one]),
        "tall": (7, [tall]),
        "object": (5, [big[:5], big[5:]]),
        "zero-rows": (4, [np.zeros((3, 4), dtype=np.int64), tall[:6, :4]]),
        "no-columns": (0, [np.zeros((3, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)]),
    }


@pytest.mark.parametrize("p", PRIMES[:3])
@pytest.mark.parametrize(
    "case", ["near-2^62", "p-1", "tall", "object", "zero-rows", "no-columns"]
)
def test_gram_rref_matches_rowwise_rref(p, case):
    ncols, blocks = rref_cases(p)[case]
    piv, R = _rref_mod(_gram(blocks, ncols) % p, p)
    want_piv, want_R = rowwise_rref(blocks, ncols, p)
    assert piv == want_piv
    assert R.dtype == np.int64 and np.array_equal(R, want_R)


def test_isotropic_rows_lose_rank_only_at_the_primes_they_are_isotropic_for():
    # 1 + a**2 + b**2 is divisible by the first two primes, so there the Gram
    # matrix of the single column is 0 although the column is not
    a, b = 337769089571796, 144756314570731
    for p in PRIMES[:2]:
        assert (1 + a * a + b * b) % p == 0
    B = np.array([[1], [a], [b]], dtype=np.int64)
    G = _gram([B], 1)
    assert [len(_rref_mod(G % p, p)[0]) for p in PRIMES[:3]] == [0, 0, 1]
    exact = null_stream([B], 1, mode="exact")
    modular = null_stream([B], 1, mode="modular")
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
    return {
        "near-2^62": (6, [near[:11], near[11:]]),
        "int64-min": (2, [np.array([[-(2**63), 0]], dtype=np.int64)]),
        "uint64": (2, [np.array([[2**64 - 1, 5], [2**63, 2**32]], dtype=np.uint64)]),
        "int32": (3, [rng.integers(-(2**31), 2**31, size=(9, 3)).astype(np.int32)]),
        "object": (3, [big]),
        "mixed": (3, [big[:3], rng.integers(-(2**62), 2**62, size=(8, 3)), big[3:]]),
        "tall": (4, [tall]),
        "past-fold": (1, [fold]),
        "zero-rows": (4, [np.zeros((3, 4), dtype=np.int64), np.zeros((0, 4), np.int64)]),
        "no-columns": (0, [np.zeros((3, 0), dtype=np.int64)]),
    }


@pytest.mark.parametrize(
    "case",
    ["near-2^62", "int64-min", "uint64", "int32", "object", "mixed", "tall",
     "past-fold", "zero-rows", "no-columns"],
)
def test_gram_is_exact(case):
    ncols, blocks = gram_cases()[case]
    want = np.zeros((ncols, ncols), dtype=object)
    for B in blocks:
        B = B.astype(object)
        want = want + B.T.dot(B)
    G = _gram(blocks, ncols)
    assert G.shape == (ncols, ncols)
    assert all(type(x) is int for x in G.flat)
    assert np.array_equal(G, want)


def test_adversarial_prime_divisible_rows(monkeypatch):
    # the first two primes see a zero row and report too large a kernel;
    # pivot-set voting must discard them in favor of later primes
    monkeypatch.setattr(nullspace, "DEFAULT_PRIME_BUDGET", 6)
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    basis = null_stream([B], 2, mode="modular")
    assert basis.dim == 1
    assert basis.vectors[0] == (Fraction(1), Fraction(-1))


def test_modular_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(nullspace, "DEFAULT_PRIME_BUDGET", 2)
    bad = PRIMES[0] * PRIMES[1]
    B = np.array([[bad, bad]], dtype=np.int64)
    with pytest.raises(NullStreamError):
        null_stream([B], 2, mode="modular")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        null_stream([], 1, mode="float")


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
