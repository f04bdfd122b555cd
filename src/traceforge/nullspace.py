"""Exact rational kernels of sparse and streamed integer matrices.

Two entry points share one contract: the returned vectors are an exact basis
of the right kernel, each normalized so its first nonzero coordinate (in
column order) is 1, ordered by their free column.  null_dense works on an
in-memory rational matrix.  null_stream works on a matrix M given as an
iterable of 2-D integer blocks of rows (int64, or object for big entries),
which it reads once, so a one-shot generator will do; a block that is not a
2-D integer or object array with ncols columns raises ValueError.

null_stream reads the blocks once, into the exact integer Gram matrix
G = M^T M (ncols x ncols, built with exact float64 matmuls on 16-bit limbs),
and then works on G alone.  Over Q, ker G = ker M, because z^T G z = |Mz|^2.
The exact mode runs fraction-free elimination on the rows of G.  The modular
mode echelons G mod p per prime, keeps the largest rank among the primes
(a prime at which the row space is isotropic, probability about 1/p, reports
a smaller one), requires two primes to agree on the pivot columns, and lifts
the kernel by CRT and rational reconstruction; more primes are drawn on any
failure, and once the prime budget is exhausted a NullStreamError suggests
the exact mode.  Both modes return only vectors that pass the exact check
G z = 0 over Z.  That check is a proof, not a vote: k candidates in
free-column form are independent and lie in ker M, and since the rank of G
over Q is at least its rank mod p, ker M has dimension exactly k.  Results
are independent of how the rows are split into blocks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._lazy import np

Rational = Fraction

# Primes just below 2**25: products of residues summed over the columns of
# the int64 echelon in _rref_mod stay far below 2**63.
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


class _QMatrixFields(NamedTuple):
    rows: tuple[Mapping[int, Rational], ...]
    ncols: int


class QMatrix(_QMatrixFields):
    """Sparse rational matrix: one dict per row mapping column to value.
    Every construction, _replace included, checks that each column is in
    range(ncols)."""

    __slots__ = ()

    def __new__(cls, rows: tuple[Mapping[int, Rational], ...], ncols: int) -> "QMatrix":
        for r in rows:
            for c in r:
                if not (0 <= c < ncols):
                    raise ValueError(f"column {c} out of range")
        return super().__new__(cls, rows, ncols)

    @classmethod
    def _make(cls, iterable) -> "QMatrix":
        return cls(*iterable)


class NullBasis(NamedTuple):
    """A kernel basis of a matrix with ncols columns."""

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


def _blocks(blocks: Iterable[np.ndarray], ncols: int) -> Iterator[np.ndarray]:
    """One pass over the blocks, each checked and brought to int64 or object."""
    for B in blocks:
        if not isinstance(B, np.ndarray) or B.ndim != 2 or B.shape[1] != ncols:
            raise ValueError(f"row blocks must be 2-D arrays with {ncols} columns")
        if B.dtype.kind in "iu" and B.dtype != np.int64:
            B = B.astype(object)  # exact for every integer width, uint64 too
        elif B.dtype != np.int64 and B.dtype != object:
            raise ValueError(f"row blocks must be integer or object, not {B.dtype}")
        yield B


# Rows per limb slice, so the limb arrays stay small (under 1 MB each at 106
# columns) whatever the size of M.
_GRAM_ROWS = 1 << 8
# Rows summed in float64 before folding into Python ints.  Limbs are below
# 2**16 in magnitude, so each product is below 2**32 and a sum over at most
# 2**20 rows stays below 2**52: every partial sum, in any summation order, is
# an integer that float64 holds exactly.
_FOLD_ROWS = 1 << 20


def _gram(blocks: Iterable[np.ndarray], ncols: int) -> np.ndarray:
    """Exact Gram matrix G = M^T M (ncols x ncols, Python ints) in one pass.

    An int64 block is split into signed 16-bit limbs, |B| = sum_k L_k 2**(16k),
    and all limb pairs come from one float64 matmul per slice of rows; the
    pairs are combined in Python ints.  Object blocks use B^T B in Python ints.
    """
    G = np.zeros((ncols, ncols), dtype=object)
    for B in _blocks(blocks, ncols):
        if B.dtype == object:
            G = G + B.T.dot(B)
            continue
        top = max(int(B.max()), -int(B.min())) if B.size else 0
        nl = -(-top.bit_length() // 16)
        for start in range(0, B.shape[0] if nl else 0, _FOLD_ROWS):
            acc = np.zeros((nl * ncols, nl * ncols))
            for s in range(start, min(start + _FOLD_ROWS, B.shape[0]), _GRAM_ROWS):
                C = B[s : s + _GRAM_ROWS]
                # abs(-2**63) wraps to itself, which read as uint64 is 2**63
                mag = np.abs(C).view(np.uint64)
                sign = np.sign(C).astype(np.float64)
                limbs = [(mag >> 16 * k) & 0xFFFF for k in range(nl)]
                L = np.concatenate(limbs, axis=1) * np.tile(sign, nl)
                acc += L.T @ L
            A = acc.astype(np.int64).reshape(nl, ncols, nl, ncols)
            for t in range(2 * nl - 1):
                ks = range(max(0, t - nl + 1), min(t, nl - 1) + 1)
                S = sum(A[k, :, t - k] for k in ks)  # at most 4 terms below 2**52
                G = G + S.astype(object) * (1 << 16 * t)
    return G


def _rref_mod(Gp: np.ndarray, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """RREF mod p of a square matrix Gp of residues, echeloned row by row.

    Entries stay below p < 2**25, so each product of two is below 2**50 and a
    row times R sums fewer than 2**13 of them in int64 without overflow.
    Returns (pivot columns ascending, reduced rows in the same order).
    """
    Gp = Gp.astype(np.int64)
    ncols = Gp.shape[1]
    R = np.zeros((0, ncols), dtype=np.int64)
    pivcols: list[int] = []
    for r in Gp:
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


def _in_kernel(G: np.ndarray, vectors: Sequence[Sequence[Fraction]]) -> bool:
    """Exact check G z = 0 over the integers, each z cleared of denominators."""
    for v in vectors:
        den = lcm(1, *(x.denominator for x in v))
        z = np.array([x.numerator * (den // x.denominator) for x in v], dtype=object)
        if np.any(G.dot(z)):
            return False
    return True


def null_stream(
    blocks: Iterable[np.ndarray], ncols: int, mode: str = "exact"
) -> NullBasis:
    """Kernel of a matrix given as blocks of rows; see the module docstring.

    Both modes read the blocks once, into the exact Gram matrix G = M^T M.
    mode "exact": fraction-free integer elimination of the rows of G.
    mode "modular": per prime, an echelon of G mod p; a vote for the largest
    rank (a prime at which the row space is isotropic reports a smaller one),
    CRT lift and rational reconstruction.  Either result is returned only
    after the exact check G z = 0.
    """
    if ncols < 0:
        raise ValueError("negative column count")
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    G = _gram(blocks, ncols)
    if mode == "exact":
        ech = _IntEchelon(ncols)
        for row in G:
            ech.add_row({c: int(v) for c, v in enumerate(row) if v}, cleared=True)
        basis = ech.kernel()
        if not _in_kernel(G, basis.vectors):
            raise NullStreamError("exact kernel fails the check G z = 0")
        return basis

    per_prime: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    want = 2
    while True:
        while len(per_prime) < want:
            p = PRIMES[len(per_prime)]
            per_prime[p] = _rref_mod(G % p, p)
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
            if vectors is not None and _in_kernel(G, vectors):
                return NullBasis(
                    ncols, tuple(_normalize_first_one(v) for v in vectors)
                )
        if len(per_prime) >= DEFAULT_PRIME_BUDGET:
            raise NullStreamError(
                "modular kernel failed after "
                f"{len(per_prime)} primes (reconstruction or verification); "
                "rerun with mode='exact'"
            )
        want = min(len(per_prime) + 2, DEFAULT_PRIME_BUDGET)
