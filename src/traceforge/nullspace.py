"""Exact rational kernels of sparse and streamed integer matrices.

Two entry points share one contract: the returned vectors are an exact basis
of the right kernel, each normalized so its first nonzero coordinate (in
column order) is 1, ordered by their free column.  null_dense works on an
in-memory rational matrix.  null_stream works on a matrix given as 2-D
integer blocks (int64, or object for big entries) by a callable that yields
them afresh for every pass; a block that is not a 2-D integer or object
array with ncols columns raises ValueError.  It has an exact
integer-echelon mode and a multi-prime modular mode.

The modular mode reduces per prime through the Gram matrix: one pass over
the blocks accumulates G = M^T M mod p (ncols x ncols) with exact float64
matmuls, and only G is echeloned row by row.  The row space of G lies in
that of M mod p, so when their ranks agree both have the same RREF.  An
isotropic row space (probability about 1/p) lowers the rank of G; such a
prime loses the vote below, which keeps the largest rank, and a kernel that
is still too large fails the exact verification.  At least two primes must
agree on the pivot column set; the kernel is lifted by CRT and rational
reconstruction and then re-verified exactly against a fresh pass over the
blocks.  More primes are drawn on any failure; once the prime budget is
exhausted a NullStreamError suggests the exact mode.  Results are
independent of how the rows are split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Rational = Fraction

# Primes just below 2**25: the float64 Gram chunks of _modular_rref are exact
# under this bound, and int64 products of residues summed over the columns
# stay far below 2**63.
PRIMES: tuple[int, ...] = (
    33554393, 33554383, 33554371, 33554347, 33554341, 33554317, 33554291,
    33554273, 33554267, 33554249, 33554239, 33554221, 33554201, 33554167,
    33554159, 33554137, 33554123, 33554093, 33554083, 33554077, 33554051,
    33554021, 33554011, 33554009, 33553999, 33553991, 33553969, 33553967,
    33553909, 33553901, 33553879, 33553837, 33553799, 33553787, 33553771,
    33553769, 33553759, 33553747, 33553739, 33553727,
)

DEFAULT_PRIME_BUDGET = 20


class NullStreamError(RuntimeError):
    pass


@dataclass(frozen=True)
class QMatrix:
    """Sparse rational matrix: one dict per row mapping column to value."""

    rows: tuple[Mapping[int, Rational], ...]
    ncols: int

    def __post_init__(self) -> None:
        for r in self.rows:
            for c in r:
                if not (0 <= c < self.ncols):
                    raise ValueError(f"column {c} out of range")


@dataclass(frozen=True)
class NullBasis:
    ncols: int
    vectors: tuple[tuple[Rational, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def rank(self) -> int:
        return self.ncols - len(self.vectors)


def _clear_row(row: Mapping[int, Rational]) -> dict[int, int]:
    den = 1
    for v in row.values():
        f = Fraction(v)
        den = den * f.denominator // gcd(den, f.denominator)
    out = {}
    for c, v in row.items():
        f = Fraction(v)
        n = f.numerator * (den // f.denominator)
        if n:
            out[c] = n
    return out


def _content(row: dict[int, int]) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


class _IntEchelon:
    """Streaming fraction-free integer echelon keeping at most ncols rows.

    An incoming row is reduced against existing pivots in column order; if
    anything remains, its leftmost nonzero column becomes a new pivot.  The
    pivot column set this produces is intrinsic to the matrix (the
    lexicographically first independent column set), so it does not depend
    on row arrival order or batching.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_row(self, row, cleared: bool = False) -> None:
        if cleared:
            r = {c: v for c, v in dict(row).items() if v}
        else:
            r = _clear_row(row)
        while r:
            c = min(r)
            prow = self.pivots.get(c)
            if prow is None:
                g = _content(r)
                if r[c] < 0:
                    g = -g
                if g != 1:
                    r = {k: v // g for k, v in r.items()}
                self.pivots[c] = r
                return
            r = _combine_ff(r, prow, c)

    def rref(self) -> dict[int, dict[int, int]]:
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            later = sorted(c2 for c2 in row if c2 != c and c2 > c and c2 in self.pivots)
            for c2 in later:
                row = _combine_ff(row, self.pivots[c2], c2)
            if row.get(c, 0) < 0:
                row = {k: -v for k, v in row.items()}
            self.pivots[c] = row
        return self.pivots

    def kernel(self) -> NullBasis:
        rref = self.rref()
        pivot_cols = sorted(rref)
        vectors = []
        for f in range(self.ncols):
            if f in rref:
                continue
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for c in pivot_cols:
                row = rref[c]
                e = row.get(f)
                if e:
                    v[c] = Fraction(-e, row[c])
            vectors.append(_normalize_first_one(v))
        return NullBasis(self.ncols, tuple(vectors))


def _combine_ff(r: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Fraction-free combination eliminating column c of r against prow."""
    p, q = prow[c], r[c]
    g = gcd(p, q)
    mp, mq = p // g, q // g
    new = {k: v * mp for k, v in r.items()}
    for k, v in prow.items():
        s = new.get(k, 0) - v * mq
        if s:
            new[k] = s
        else:
            new.pop(k, None)
    g = _content(new)
    if g > 1:
        new = {k: v // g for k, v in new.items()}
    return new


def _normalize_first_one(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    lead = next((x for x in v if x), None)
    if lead is None or lead == 1:
        return tuple(v)
    return tuple(x / lead for x in v)


def null_dense(A: QMatrix) -> NullBasis:
    """Exact kernel of a QMatrix via fraction-free elimination."""
    ech = _IntEchelon(A.ncols)
    for row in A.rows:
        ech.add_row(row)
    return ech.kernel()


# ---------------------------------------------------------------------------
# Streamed kernels.

# A row source is a zero-argument callable returning a fresh iterable of 2-D
# integer blocks with ncols columns each: int64, or object holding Python ints
# where entries outgrow int64.  Each pass (the exact echelon, one RREF per
# prime, the exact verification) calls it once.
RowSource = Callable[[], Iterable[np.ndarray]]


def _blocks(rows: RowSource, ncols: int) -> Iterator[np.ndarray]:
    """One pass over the blocks, each checked and brought to int64 or object."""
    for B in rows():
        if not isinstance(B, np.ndarray) or B.ndim != 2 or B.shape[1] != ncols:
            raise ValueError(f"row blocks must be 2-D arrays with {ncols} columns")
        if B.dtype.kind in "iu" and B.dtype != np.int64:
            B = B.astype(object)  # exact for every integer width, uint64 too
        elif B.dtype != np.int64 and B.dtype != object:
            raise ValueError(f"row blocks must be integer or object, not {B.dtype}")
        yield B


# Rows per Gram chunk.  Residues are below p < 2**25 and the right factor is
# split at bit _SPLIT (hi < 2**13, lo < 2**12), so each product is below
# 2**38 and a sum of at most 2**12 of them stays below 2**50: every partial
# sum, in any summation order, is an integer that float64 holds exactly.
_GRAM_ROWS = 1 << 12
_SPLIT = 12


def _modular_rref(
    rows: RowSource, ncols: int, p: int
) -> tuple[tuple[int, ...], np.ndarray]:
    """RREF mod p of the Gram matrix G = M^T M of the streamed matrix M.

    G (ncols x ncols) is accumulated with one exact float64 matmul per chunk
    of rows and then echeloned row by row.  Its row space lies in that of
    M mod p, so when the ranks agree the RREF is the RREF of M mod p.  When
    they do not (an isotropic row space, probability about 1/p) the rank
    drops, and the caller's vote for the largest rank and its exact
    verification reject the result.  Returns (pivot columns, reduced rows).
    """
    G = np.zeros((ncols, ncols), dtype=np.int64)
    low = (1 << _SPLIT) - 1
    for B in _blocks(rows, ncols):
        B = np.mod(B, p).astype(np.int64, copy=False)
        for start in range(0, B.shape[0], _GRAM_ROWS):
            C = B[start : start + _GRAM_ROWS]
            H = np.concatenate([C >> _SPLIT, C & low], axis=1).astype(np.float64)
            XY = (C.T.astype(np.float64) @ H).astype(np.int64)
            X, Y = XY[:, :ncols], XY[:, ncols:]
            G = (G + ((X % p) << _SPLIT) + Y % p) % p
    R = np.zeros((0, ncols), dtype=np.int64)
    pivcols: list[int] = []
    for r in G:
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


def _mod_kernel_columns(
    pivcols: tuple[int, ...], R: np.ndarray, ncols: int
) -> tuple[list[int], np.ndarray]:
    """Kernel mod p in free-column canonical form.

    Returns (free columns ascending, matrix K with K[i] the kernel vector
    for free column i: 1 at the free column, -R[:, f] at the pivot columns).
    """
    pivset = set(pivcols)
    free = [c for c in range(ncols) if c not in pivset]
    K = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        K[i, f] = 1
        if len(pivcols):
            K[i, list(pivcols)] = -R[:, f]
    return free, K


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine residues: value mod m1*m2 agreeing with both inputs."""
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return (r1 + m1 * t) % (m1 * m2), m1 * m2


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Rational number n/d with n*d^-1 = a mod m, |n|, d <= sqrt(m/2).

    Returns None when no such fraction exists.
    """
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    n, d = r1, s1
    if d == 0:
        return None
    if d < 0:
        n, d = -n, -d
    if d > bound or gcd(n, d) != 1:
        return None
    if (n - a * d) % m != 0:
        return None
    return Fraction(n, d)


def _reconstruct_vectors(
    per_prime: dict[int, tuple[list[int], np.ndarray]], ncols: int
) -> list[tuple[Fraction, ...]] | None:
    """CRT + rational reconstruction of kernel vectors across primes."""
    primes = sorted(per_prime)
    frees = [tuple(per_prime[p][0]) for p in primes]
    if len(set(frees)) != 1:
        return None
    free = frees[0]
    vectors: list[tuple[Fraction, ...]] = []
    M = 1
    for p in primes:
        M *= p
    for i in range(len(free)):
        coords: list[Fraction] = []
        for c in range(ncols):
            res, mod = 0, 1
            for p in primes:
                K = per_prime[p][1]
                res, mod = crt_pair(res, mod, int(K[i, c]) % p, p)
            f = rational_reconstruct(res, M)
            if f is None:
                return None
            coords.append(f)
        vectors.append(tuple(coords))
    return vectors


def _verify_exact(rows: RowSource, vectors: list[tuple[Fraction, ...]]) -> bool:
    """Exact check that every row is orthogonal to every candidate vector.

    A block is multiplied in int64 when its entry bound times the vector
    bound times ncols stays below 2**62, so no sum can wrap; in Python ints
    (object dtype) otherwise.
    """
    if not vectors:
        return True
    ncols = len(vectors[0])
    ints: list[np.ndarray] = []
    maxv = 0
    for v in vectors:
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        iv = [int(x * den) for x in v]
        maxv = max(maxv, max(abs(n) for n in iv) if iv else 0)
        ints.append(np.array(iv, dtype=object))
    V = np.stack(ints, axis=1)  # ncols x k, object
    V_small = V.astype(np.int64) if maxv < 1 << 62 else None
    for B in _blocks(rows, ncols):
        if not B.size:
            continue
        if V_small is not None and B.dtype != object:
            # not np.abs(B).max(): abs(-2**63) wraps to itself in int64
            bound = max(int(B.max()), -int(B.min()))
            if bound * maxv * ncols < 1 << 62:
                if np.any(B @ V_small):
                    return False
                continue
        if np.any(B.astype(object) @ V):
            return False
    return True


def null_stream(
    rows: RowSource,
    ncols: int,
    mode: str = "exact",
    prime_budget: int | None = None,
) -> NullBasis:
    """Kernel of a streamed matrix.  See the module docstring for contract.

    mode "exact": one streaming pass of fraction-free integer elimination.
    mode "modular": per prime, one pass accumulating the Gram matrix
    M^T M mod p and a small echelon of it; a vote for the largest rank
    (a prime at which the row space is isotropic reports a smaller one),
    CRT lift, rational reconstruction, and a mandatory exact verification
    pass.
    """
    if ncols < 0:
        raise ValueError("negative column count")
    if mode == "exact":
        ech = _IntEchelon(ncols)
        for B in _blocks(rows, ncols):
            for row in B:
                nz = np.flatnonzero(row)
                if len(nz):
                    ech.add_row({int(c): int(row[c]) for c in nz}, cleared=True)
        return ech.kernel()
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")

    budget = DEFAULT_PRIME_BUDGET if prime_budget is None else prime_budget
    if budget < 2:
        raise ValueError("modular mode needs a budget of at least 2 primes")
    budget = min(budget, len(PRIMES))

    per_prime: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    want = 2
    while True:
        while len(per_prime) < want:
            p = PRIMES[len(per_prime)]
            per_prime[p] = _modular_rref(rows, ncols, p)
        # keep the primes agreeing on the best pivot set: largest rank first
        # (modular rank never exceeds the true rank), then largest group
        best: dict[tuple[int, ...], list[int]] = {}
        for p, (piv, _) in per_prime.items():
            best.setdefault(piv, []).append(p)
        piv_best = max(best, key=lambda piv: (len(piv), len(best[piv]), best[piv]))
        good = sorted(best[piv_best])
        if len(good) >= 2:
            kernels = {
                p: _mod_kernel_columns(per_prime[p][0], per_prime[p][1], ncols)
                for p in good
            }
            vectors = _reconstruct_vectors(kernels, ncols)
            if vectors is not None and _verify_exact(rows, vectors):
                return NullBasis(
                    ncols, tuple(_normalize_first_one(v) for v in vectors)
                )
        if len(per_prime) >= budget:
            raise NullStreamError(
                "modular kernel failed after "
                f"{len(per_prime)} primes (reconstruction or verification); "
                "rerun with mode='exact'"
            )
        want = min(len(per_prime) + 2, budget)
