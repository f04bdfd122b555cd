"""Highest weight vectors of a fixed weight inside the generator algebra.

For a weight lam = (l1, l2) the space of interest is the kernel of the
raising derivation on the bidegree-(l1, l2) slice: monomials of bidegree lam
span a P-dimensional space, abs_delta maps it into the Q-dimensional
bidegree-(l1+1, l2-1) slice, and the highest weight vectors are the kernel.
The raising map is always surjective here, so the kernel has dimension
P - Q, which equals the multiplicity of W(lam).

The system splits block-diagonally by the per-module occupation profile
(raising never moves factors between modules).  Blocked solving is the
default above total degree 12 and can be forced either way; both modes span
the same space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .glcat import (
    ABS_GENS,
    AbsMonomial,
    AbsPoly,
    Partition,
    abs_delta,
    abs_monomials,
    eval_abs_poly,
    mono_name,
)
from . import genmat
from .nullspace import QMatrix, null_dense

BLOCKED_DEGREE_THRESHOLD = 12


@dataclass(frozen=True)
class HwvBasis:
    lam: Partition
    P: int
    Q: int
    alpha_rank: int
    blocked: bool
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


def _kernel_for(
    p_mons: list[AbsMonomial], q_mons: list[AbsMonomial]
) -> tuple[int, list[AbsPoly]]:
    """(rank, kernel vectors) of abs_delta restricted to span(p_mons)."""
    q_index = {m: i for i, m in enumerate(q_mons)}
    rows: list[dict[int, Fraction]] = [dict() for _ in q_mons]
    for c, mono in enumerate(p_mons):
        image = abs_delta(AbsPoly.monomial(mono))
        for m2, coeff in image.terms.items():
            rows[q_index[m2]][c] = coeff
    nb = null_dense(QMatrix(tuple(rows), len(p_mons)))
    vectors = []
    for v in nb.vectors:
        terms = {m: c for m, c in zip(p_mons, v) if c}
        vectors.append(AbsPoly(terms))
    return nb.rank, vectors


def hwv_basis(
    lam: Partition, blocked: bool | None = None, threads: int = 1
) -> HwvBasis:
    lam = Partition.of(*lam)
    if blocked is None:
        blocked = lam.total > BLOCKED_DEGREE_THRESHOLD
    p_mons = abs_monomials(lam)
    q_mons = (
        abs_monomials(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 > 0 else []
    )
    if not blocked:
        rank, vectors = _kernel_for(p_mons, q_mons)
        return HwvBasis(
            lam, len(p_mons), len(q_mons), rank, False, tuple(p_mons), tuple(vectors)
        )

    p_blocks: dict[tuple[int, ...], list[AbsMonomial]] = {}
    for m in p_mons:
        p_blocks.setdefault(_module_profile(m), []).append(m)
    q_blocks: dict[tuple[int, ...], list[AbsMonomial]] = {}
    for m in q_mons:
        q_blocks.setdefault(_module_profile(m), []).append(m)

    profiles = sorted(p_blocks)

    def solve(prof):
        return _kernel_for(p_blocks[prof], q_blocks.get(prof, []))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(solve, profiles))
    else:
        results = [solve(prof) for prof in profiles]

    rank = sum(r for r, _ in results)
    vectors: list[AbsPoly] = []
    for _, vecs in results:
        vectors.extend(vecs)
    return HwvBasis(
        lam, len(p_mons), len(q_mons), rank, True, tuple(p_mons), tuple(vectors)
    )


@dataclass(frozen=True)
class HwvVerifyReport:
    lam: Partition
    s: int
    rank_ok: bool
    abs_delta_zero: bool
    eval_delta_zero: bool | None
    eval_h_fixed: bool | None
    checked_by_eval: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.rank_ok
            and self.abs_delta_zero
            and self.eval_delta_zero in (True, None)
            and self.eval_h_fixed in (True, None)
        )


def hwv_verify(
    basis: HwvBasis,
    evaluate: bool = True,
    sample: int | None = None,
    cache: genmat.EvalCache | None = None,
) -> HwvVerifyReport:
    """Check a basis three ways: the raising image vanishes exactly in the
    generator algebra, the evaluated image of the raising derivation
    vanishes on the generic matrices, and evaluation is fixed under the
    substitution y -> x + y.  The evaluation checks can be limited to the
    first `sample` vectors.

    Both evaluation checks work on the evaluated side: eval(phi(v)) is
    computed once by glcat.eval_abs_poly, from the generator-monomial
    products that relation_space assembles too (memoized on the cache), and
    eval(delta(phi(v))) and eval(subst_h(phi(v))) are obtained from it as
    genmat.eval_delta and genmat.eval_subst_h, key shifts on the packed
    polynomial.  A vector that evaluates to zero is a relation and passes
    both checks.  Raises PackedCapacityError where an x exponent would
    overflow its packed field."""
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
    eval_h_fixed: bool | None = None
    checked = 0
    if evaluate:
        eval_delta_zero = True
        eval_h_fixed = True
        todo = basis.vectors if sample is None else basis.vectors[:sample]
        for i, v in enumerate(todo):
            ev = eval_abs_poly(v, cache)
            if not genmat.eval_delta(ev).is_zero():
                eval_delta_zero = False
                failures.append(f"vector {i}: evaluated raising image nonzero")
            if genmat.eval_subst_h(ev) != ev:
                eval_h_fixed = False
                failures.append(f"vector {i}: not fixed under y -> x + y")
            checked += 1
    return HwvVerifyReport(
        basis.lam,
        basis.s,
        rank_ok,
        abs_ok,
        eval_delta_zero,
        eval_h_fixed,
        checked,
        tuple(failures),
    )


def hwv_json(basis: HwvBasis) -> dict:
    return {
        "lambda": list(basis.lam),
        "P": basis.P,
        "Q": basis.Q,
        "alpha_rank": basis.alpha_rank,
        "s": basis.s,
        "blocked": basis.blocked,
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
    index = {m: i for i, m in enumerate(a.monomials)}

    def rank_of(vectors) -> int:
        from .nullspace import _IntEchelon

        ech = _IntEchelon(len(index))
        for v in vectors:
            ech.add_row({index[m]: c for m, c in v.terms.items()})
        return ech.rank

    ra = rank_of(a.vectors)
    rboth = rank_of(list(a.vectors) + list(b.vectors))
    return ra == a.s and rboth == ra
