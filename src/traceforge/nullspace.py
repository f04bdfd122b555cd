"""Exact rational kernels, and the one modular prime loop.

Every kernel here comes as an exact basis of the right kernel, each vector
normalized so its first nonzero coordinate (in column order) is 1, ordered
by its free column.  _IntEchelon is the fraction-free integer echelon that
hwv solves its bases with.

modular_kernel is the one prime loop.  relfinder.relation_space runs it on
the values of a highest weight basis at points mod p.  Its first attempt
lifts the kernel from one prime alone by rational reconstruction and hands
the candidates to the caller's proof.  On any failure more primes are
drawn: the loop keeps the largest rank among them (a prime can only report
a smaller rank than the one over Q), and the primes agreeing on its pivot
columns lift the kernel by CRT and rational reconstruction.  Once the prime
budget is exhausted a NullStreamError names the number of primes tried.
The caller's proof of the candidates is what makes
the result exact: k candidates in free-column form are independent, and if
they all lie in the kernel, its dimension is exactly k, since the rank over
Q is at least the rank mod p.

The exact kernel of one integer matrix through its Gram matrix, at the end
of this module, has no caller in the package (see its docstring).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Mapping, NamedTuple, Sequence

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

    def add_row(self, row: Mapping[int, int]) -> None:
        """Reduce a row of nonzero integer entries, by column, against the
        pivots; what remains becomes a new pivot row."""
        r = dict(row)
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

    def int_kernel(self) -> list[tuple[list[int], int]]:
        """The kernel in free-column order, each vector as integer
        numerators over one positive denominator, with no common factor,
        normalized so its first nonzero coordinate is 1 (see kernel)."""
        rref = self.rref()
        pivot_cols = sorted(rref)
        vectors = []
        for f in range(self.ncols):
            if f in rref:
                continue
            # v[f] = 1 and v[c] = -e / row[c] at each pivot c; the pivots of
            # the rref are positive, so L is their lcm and nums = L v
            hits = [(c, rref[c][f], rref[c][c]) for c in pivot_cols if rref[c].get(f)]
            L = lcm(1, *(p for _, _, p in hits))
            nums = [0] * self.ncols
            nums[f] = L
            for c, e, p in hits:
                nums[c] = -e * (L // p)
            lead = next(x for x in nums if x)
            g = gcd(lead, *nums)
            if lead < 0:
                g = -g
            vectors.append(([x // g for x in nums], lead // g))
        return vectors

    def kernel(self) -> NullBasis:
        """The kernel in free-column order, each vector normalized so its
        first nonzero coordinate is 1, as Fractions."""
        return NullBasis(
            self.ncols,
            tuple(
                tuple(Fraction(x, den) for x in nums)
                for nums, den in self.int_kernel()
            ),
        )


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


# ---------------------------------------------------------------------------
# The exact kernel of one integer matrix.


# Rows per limb slice, so the limb arrays stay small (under 1 MB each at 106
# columns) whatever the size of M.
_GRAM_ROWS = 1 << 8
# Rows summed in float64 before folding into Python ints.  Limbs are below
# 2**16 in magnitude, so each product is below 2**32 and a sum over at most
# 2**20 rows stays below 2**52: every partial sum, in any summation order, is
# an integer that float64 holds exactly.
_FOLD_ROWS = 1 << 20


def _gram(M: np.ndarray) -> np.ndarray:
    """Exact Gram matrix G = M^T M (ncols x ncols, Python ints) of a 2-D
    int64 or object array M; any other input raises ValueError.

    An int64 M is split into signed 16-bit limbs, |M| = sum_k L_k 2**(16k),
    and all limb pairs come from one float64 matmul per slice of rows; the
    pairs are combined in Python ints.  An object M uses M^T M in Python ints.
    """
    if not isinstance(M, np.ndarray) or M.ndim != 2:
        raise ValueError("M must be a 2-D array")
    if M.dtype != np.int64 and M.dtype != object:
        raise ValueError(f"M must be int64 or object, not {M.dtype}")
    if M.dtype == object:
        return M.T.dot(M)
    ncols = M.shape[1]
    G = np.zeros((ncols, ncols), dtype=object)
    top = max(int(M.max()), -int(M.min())) if M.size else 0
    nl = -(-top.bit_length() // 16)
    for start in range(0, M.shape[0] if nl else 0, _FOLD_ROWS):
        acc = np.zeros((nl * ncols, nl * ncols))
        for s in range(start, min(start + _FOLD_ROWS, M.shape[0]), _GRAM_ROWS):
            C = M[s : s + _GRAM_ROWS]
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
    """RREF mod p of a matrix Gp of residues, by Gauss-Jordan elimination
    one column at a time.

    Entries stay below p < 2**25, so each product of two is below 2**50 and
    every update stays in int64 without overflow.  Returns (pivot columns
    ascending, reduced rows in the same order).
    """
    A = Gp.astype(np.int64) % p
    pivcols: list[int] = []
    for c in range(A.shape[1]):
        top = len(pivcols)
        nz = np.flatnonzero(A[top:, c])
        if not len(nz):
            continue
        k = top + int(nz[0])
        if k != top:
            A[[top, k]] = A[[k, top]]
        A[top] = A[top] * pow(int(A[top, c]), p - 2, p) % p
        colvals = A[:, c].copy()
        colvals[top] = 0
        A = (A - np.outer(colvals, A[top])) % p
        pivcols.append(c)
    return tuple(pivcols), A[: len(pivcols)]


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


def null_stream(M: np.ndarray) -> NullBasis:
    """Exact kernel of M, a 2-D int64 or object array (any other dtype or
    shape raises ValueError): fraction-free elimination of the rows of its
    Gram matrix G = M^T M (see _gram), returned only after the exact check
    G z = 0.  Over Q, ker G = ker M, because z^T G z = |Mz|^2.

    Nothing in the package calls this, _gram or _in_kernel: the benchmark
    in bench/ still looks this function up by name, and the tests keep all
    three as an oracle."""
    G = _gram(M)
    ech = _IntEchelon(G.shape[0])
    for row in G:
        ech.add_row({c: v for c, v in enumerate(row) if v})
    basis = ech.kernel()
    if not _in_kernel(G, basis.vectors):
        raise NullStreamError("exact kernel fails the check G z = 0")
    return basis


def modular_kernel(
    echelon: Callable[[int], tuple[tuple[int, ...], np.ndarray] | None],
    ncols: int,
    proven: Callable[[Sequence[tuple[Fraction, ...]]], bool],
) -> NullBasis:
    """The one prime loop, run by relfinder.relation_space on the values of
    a basis at points mod p.

    echelon(p) is _rref_mod of the matrix mod p, or None for a prime to
    skip: one that divides a denominator of the matrix.  A rank mod p never
    exceeds the rank over Q, so the vote keeps the largest rank among the
    primes, then the largest group of primes agreeing on its pivot columns.
    That group gives candidate kernel vectors by CRT and rational
    reconstruction, each normalized so its first nonzero coordinate is 1,
    and they are returned once proven(vectors) holds.  The first attempt
    draws one prime, which reconstructs numerators and denominators up to
    sqrt(p/2), about 4095, far beyond every coordinate of the relation
    spaces.  On a skipped prime, a failed reconstruction or a failed proof
    two more primes are drawn; once DEFAULT_PRIME_BUDGET primes are tried,
    a NullStreamError names their number."""
    per_prime: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    budget = min(DEFAULT_PRIME_BUDGET, len(PRIMES))
    tried = 0
    want = 1
    while True:
        while len(per_prime) < want and tried < budget:
            p = PRIMES[tried]
            tried += 1
            ech = echelon(p)
            if ech is not None:
                per_prime[p] = ech
        # keep the primes agreeing on the best pivot set: largest rank first
        # (modular rank never exceeds the true rank), then largest group
        best: dict[tuple[int, ...], list[int]] = {}
        for p, (piv, _) in per_prime.items():
            best.setdefault(piv, []).append(p)
        if best:
            piv_best = max(best, key=lambda piv: (len(piv), len(best[piv]), best[piv]))
            kernels = {
                p: _mod_kernel_columns(per_prime[p][0], per_prime[p][1], ncols)
                for p in best[piv_best]
            }
            vectors = _reconstruct_vectors(kernels, ncols)
            if vectors is not None:
                vectors = [_normalize_first_one(v) for v in vectors]
                if proven(vectors):
                    return NullBasis(ncols, tuple(vectors))
        if tried >= budget:
            raise NullStreamError(
                "modular kernel failed after "
                f"{tried} primes (reconstruction or verification)"
            )
        want = len(per_prime) + 2
