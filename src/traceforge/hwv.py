"""Highest weight vectors of a fixed weight inside the generator algebra.

For a weight lam = (l1, l2) the highest weight vectors are the kernel of the
raising derivation abs_delta on the bidegree-(l1, l2) slice.  Monomials of
bidegree lam span a P-dimensional space, abs_delta maps it into the
Q-dimensional bidegree-(l1+1, l2-1) slice, and the map is always surjective
here, so the kernel has dimension P - Q, the multiplicity of W(lam).

Raising never moves factors between modules, so the system is block
diagonal by the per-module occupation profile of a monomial.  hwv_basis
solves each block on its own and returns the vectors in free-column order.
The free column of a vector is its last monomial in abs_monomials order, a
monomial at which no other vector has a term.  Kernels in free-column form
are unique, so this is the basis that the kernel of the whole slice, solved
as one matrix, gives, vector for vector.

raising_kernel is the kernel of abs_delta on the span of any list of
polynomials, and span_rank the dimension of a span; the relation layer uses
both for the old/new split and for membership.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .glcat import (
    ABS_GENS,
    AbsMonomial,
    AbsPoly,
    Partition,
    abs_delta,
    abs_monomials,
    hilbert_coeff,
    mono_name,
)
from . import genmat
from .nullspace import NullBasis, QMatrix, _IntEchelon, null_dense


class HwvBasis(NamedTuple):
    """The highest weight vectors of weight lam in free-column order, over
    the P monomials of bidegree lam; the raising map goes to a Q-dimensional
    slice and has rank alpha_rank."""

    lam: Partition
    P: int
    Q: int
    alpha_rank: int
    monomials: tuple[AbsMonomial, ...]
    vectors: tuple[AbsPoly, ...]

    @property
    def s(self) -> int:
        return len(self.vectors)


def _module_profile(mono: AbsMonomial) -> tuple[int, ...]:
    prof = [0] * 12
    for gid in mono:
        prof[ABS_GENS[gid].module - 1] += 1
    return tuple(prof)


def raising_kernel(polys: Sequence[AbsPoly]) -> NullBasis:
    """Exact kernel of abs_delta on the span of polys: the coefficient
    vectors c, in free-column order, with abs_delta(sum c_i polys_i) = 0."""
    rows: dict[AbsMonomial, dict[int, Fraction]] = {}
    for col, p in enumerate(polys):
        for m, coeff in abs_delta(p).terms.items():
            rows.setdefault(m, {})[col] = coeff
    return null_dense(QMatrix(tuple(rows.values()), len(polys)))


def span_rank(polys: Iterable[AbsPoly]) -> int:
    """Dimension of the rational span of polys."""
    polys = list(polys)
    index: dict[AbsMonomial, int] = {}
    for p in polys:
        for m in p.terms:
            index.setdefault(m, len(index))
    ech = _IntEchelon(len(index))
    for p in polys:
        ech.add_row({index[m]: c for m, c in p.terms.items()})
    return ech.rank


def hwv_basis(
    lam: Partition, threads: int = 1, cache: genmat.EvalCache | None = None
) -> HwvBasis:
    """The basis of weight lam, memoized on the cache (the default cache if
    none is given) per weight and thread count: relation_space, the check
    of a stored relation space and the CLI ask for it again.  The thread
    count is part of the key so that a threaded solve is never answered by
    a serial one."""
    lam = Partition.of(*lam)
    cache = cache or genmat.default_cache()
    basis = cache._bases.get((lam, threads))
    if basis is None:
        basis = _solve_basis(lam, threads)
        with cache._lock:
            cache._bases[(lam, threads)] = basis
    return basis


def _solve_basis(lam: Partition, threads: int) -> HwvBasis:
    p_mons = abs_monomials(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 else 0
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(p_mons):
        blocks.setdefault(_module_profile(m), []).append(i)

    def solve(cols: list[int]) -> NullBasis:
        return raising_kernel([AbsPoly.monomial(p_mons[i]) for i in cols])

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            kernels = list(ex.map(solve, blocks.values()))
    else:
        kernels = [solve(cols) for cols in blocks.values()]

    rank = 0
    by_free_col: list[tuple[int, AbsPoly]] = []
    for cols, nb in zip(blocks.values(), kernels):
        rank += nb.rank
        for v in nb.vectors:
            nonzero = [(i, c) for i, c in zip(cols, v) if c]
            free = nonzero[-1][0]
            by_free_col.append((free, AbsPoly({p_mons[i]: c for i, c in nonzero})))
    by_free_col.sort(key=lambda t: t[0])
    vectors = tuple(v for _, v in by_free_col)
    return HwvBasis(lam, len(p_mons), Q, rank, tuple(p_mons), vectors)


class HwvVerifyReport(NamedTuple):
    """What hwv_verify found for a basis of s vectors; failures names each
    failed check."""

    lam: Partition
    s: int
    rank_ok: bool
    abs_delta_zero: bool
    eval_delta_zero: bool | None
    checked_by_eval: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.abs_delta_zero and self.eval_delta_zero in (True, None)


# entries of M per application of D in hwv_verify; bounds the transient
# arrays of its sort
_D_TERMS = 1 << 18


def hwv_verify(
    basis: HwvBasis,
    evaluate: bool = True,
    cache: genmat.EvalCache | None = None,
) -> HwvVerifyReport:
    """Check a basis: abs_delta kills each vector exactly and, with
    evaluate, the evaluated raising map D kills its evaluation on the
    generic matrices.  The evaluations are the columns of the matrix that
    relation_space solves, from relfinder._assemble_matrix, which leaves the
    matrix on the cache's weight slot, where the relation_space of the same
    basis finds it and relfinder.verify_zero_abs evaluates any member of the
    basis's span without a product; genmat.eval_delta_columns applies D to a
    block of columns with one sort.
    A vector that evaluates to zero is a relation and passes.  Raises
    PackedCapacityError where an evaluation exceeds the packed fields."""
    failures: list[str] = []
    rank_ok = basis.alpha_rank == basis.Q
    if not rank_ok:
        failures.append(f"alpha rank {basis.alpha_rank} != Q {basis.Q}")
    abs_ok = True
    for i, v in enumerate(basis.vectors):
        if not abs_delta(v).is_zero():
            abs_ok = False
            failures.append(f"vector {i}: abs_delta image nonzero")
    eval_delta_zero: bool | None = None
    if evaluate:
        from .relfinder import _assemble_matrix  # relfinder imports this module

        M, _, keys = _assemble_matrix(basis.vectors, cache)
        step = max(1, _D_TERMS // max(1, len(keys)))
        flagged = []
        for start in range(0, M.shape[1], step):
            _, image = genmat.eval_delta_columns(keys, M[:, start : start + step])
            flagged.extend((image != 0).any(axis=0).tolist())
        eval_delta_zero = not any(flagged)
        for i, bad in enumerate(flagged):
            if bad:
                failures.append(f"vector {i}: evaluated raising image nonzero")
    return HwvVerifyReport(
        basis.lam,
        basis.s,
        rank_ok,
        abs_ok,
        eval_delta_zero,
        basis.s if evaluate else 0,
        tuple(failures),
    )


def hwv_json(basis: HwvBasis) -> dict:
    return {
        "lambda": list(basis.lam),
        "P": basis.P,
        "Q": basis.Q,
        "alpha_rank": basis.alpha_rank,
        "s": basis.s,
        "vectors": [
            {
                mono_name(m): f"{c.numerator}/{c.denominator}"
                for m, c in v.sorted_terms()
            }
            for v in basis.vectors
        ],
    }


def span_equal(a: HwvBasis, b: HwvBasis) -> bool:
    """Do two bases span the same subspace of the bidegree slice?"""
    if a.lam != b.lam or a.s != b.s:
        return False
    rank = span_rank(a.vectors)
    return rank == a.s == span_rank(b.vectors) == span_rank(a.vectors + b.vectors)
