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

from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .glcat import (
    ABS_GENS,
    AbsMonomial,
    AbsPoly,
    Partition,
    abs_delta,
    abs_monomials,
    catalog,
    hilbert_coeff,
    mono_name,
)
from . import genmat
from .nullspace import _IntEchelon


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


def raising_kernel(polys: Sequence[AbsPoly]) -> list[tuple[list[int], int]]:
    """Exact kernel of abs_delta on the span of polys: the coefficient
    vectors c, in free-column order, with abs_delta(sum c_i polys_i) = 0,
    each as integer numerators over one denominator (see
    nullspace._IntEchelon.int_kernel).  The rows of its matrix are
    integers: every column is scaled by the common denominator L of the
    images, which leaves the kernel as it is."""
    images = [abs_delta(p) for p in polys]
    L = lcm(1, *(d.den for d in images))
    rows: dict[AbsMonomial, dict[int, int]] = {}
    for col, d in enumerate(images):
        f = L // d.den
        for m, c in d.nums.items():
            rows.setdefault(m, {})[col] = c * f
    ech = _IntEchelon(len(polys))
    for row in rows.values():
        ech.add_row(row)
    return ech.int_kernel()


def span_rank(polys: Iterable[AbsPoly]) -> int:
    """Dimension of the rational span of polys, from their integer
    numerators (a row scaled by its denominator spans the same line)."""
    polys = list(polys)
    index: dict[AbsMonomial, int] = {}
    for p in polys:
        for m in p.nums:
            index.setdefault(m, len(index))
    ech = _IntEchelon(len(index))
    for p in polys:
        ech.add_row({index[m]: c for m, c in p.nums.items()})
    return ech.rank


def hwv_basis(
    lam: Partition, threads: int = 1, cache: genmat.EvalCache | None = None
) -> HwvBasis:
    """The basis of weight lam, memoized on the cache (the default cache if
    none is given) per weight: the hwv check, its verification and a
    relation space that is solved ask for it again.  threads splits the
    blocks of a solve; a threaded and a serial solve give the same basis,
    so the memo answers either."""
    lam = Partition.of(*lam)
    cache = cache or genmat.default_cache()
    basis = cache._bases.get(lam)
    if basis is None:
        basis = _solve_basis(lam, threads)
        with cache._lock:
            cache._bases[lam] = basis
            cache.stats.bases_solved += 1
    return basis


def _solve_basis(lam: Partition, threads: int) -> HwvBasis:
    p_mons = abs_monomials(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 else 0
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(p_mons):
        blocks.setdefault(_module_profile(m), []).append(i)

    def solve(cols: list[int]) -> list[tuple[list[int], int]]:
        return raising_kernel([AbsPoly.monomial(p_mons[i]) for i in cols])

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            kernels = list(ex.map(solve, blocks.values()))
    else:
        kernels = [solve(cols) for cols in blocks.values()]

    rank = 0
    by_free_col: list[tuple[int, AbsPoly]] = []
    for cols, kernel in zip(blocks.values(), kernels):
        rank += len(cols) - len(kernel)
        for nums, den in kernel:
            nonzero = {i: c for i, c in zip(cols, nums) if c}
            # the free column is the last nonzero one
            by_free_col.append(
                (max(nonzero), AbsPoly._of({p_mons[i]: c for i, c in nonzero.items()}, den))
            )
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
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.abs_delta_zero


def hwv_verify(
    basis: HwvBasis,
    evaluate: bool = True,
    cache: genmat.EvalCache | None = None,
) -> HwvVerifyReport:
    """Check a basis: the raising map has rank Q, and abs_delta kills each
    vector exactly.  With evaluate, the catalog is certified on the cache
    (see glcat.catalog).  Its certificate proves that the evaluated raising
    map D acts on the generators as abs_delta does, so D kills the
    evaluation of every vector that abs_delta kills, and nothing is
    evaluated here.  A vector that evaluates to zero is a relation and
    passes."""
    if evaluate:
        catalog(cache)
    failures: list[str] = []
    rank_ok = basis.alpha_rank == basis.Q
    if not rank_ok:
        failures.append(f"alpha rank {basis.alpha_rank} != Q {basis.Q}")
    abs_ok = True
    for i, v in enumerate(basis.vectors):
        if not abs_delta(v).is_zero():
            abs_ok = False
            failures.append(f"vector {i}: abs_delta image nonzero")
    return HwvVerifyReport(basis.lam, basis.s, rank_ok, abs_ok, tuple(failures))


def hwv_json(basis: HwvBasis) -> dict:
    return {
        "lambda": list(basis.lam),
        "P": basis.P,
        "Q": basis.Q,
        "alpha_rank": basis.alpha_rank,
        "s": basis.s,
        "vectors": [{mono_name(m): c for m, c in v.text_terms()} for v in basis.vectors],
    }


def span_equal(a: HwvBasis, b: HwvBasis) -> bool:
    """Do two bases span the same subspace of the bidegree slice?"""
    if a.lam != b.lam or a.s != b.s:
        return False
    rank = span_rank(a.vectors)
    return rank == a.s == span_rank(b.vectors) == span_rank(a.vectors + b.vectors)
