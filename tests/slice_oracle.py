"""The slice proof of relation vectors: an oracle for the count proof.

relfinder proves its relation vectors by counting (see
relfinder._proven_at_points).  This module keeps the earlier, independent
proof, which assembles the relation vectors from generator-monomial products
on the slice y11 = 0, so that the tests can prove every relation vector zero
a second way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from traceforge import genmat, relfinder
from traceforge.glcat import AbsPoly, _gen_evals
from traceforge.hwv import HwvBasis
from traceforge.packedpoly import MASKS, SHIFTS, PackedPoly, _normalize

# the variable that _proven sets to zero
Y11 = genmat.VARSET18.index("y11")


def at_zero(p: PackedPoly, var: int) -> PackedPoly:
    """p with the variable of index var set to zero: every term with a
    nonzero exponent of var is dropped.  Setting a variable to zero is a
    ring homomorphism, so at_zero(p * q) = at_zero(p) * at_zero(q).  The
    degrees of p are kept as bounds."""
    keep = ((p.keys >> SHIFTS[var]) & MASKS[var]) == 0
    return _normalize(p.keys[keep], p.coeffs[keep], p.den, p.xdeg, p.ydeg)


def _proven(
    zeta: Sequence[Sequence[Fraction]], basis: HwvBasis, cache: genmat.EvalCache
) -> tuple[AbsPoly, ...] | None:
    """The combinations sum_i z_i v_i of the basis vectors, one per zeta,
    when every f = ev(sum_i z_i v_i) is zero on the generic matrices, else
    None.  The combinations are assembled on the slice y11 = 0, from the
    generator evaluations with y11 set to zero, and their matrix must have
    no nonzero row.

    The slice decides because abs_delta kills every combination, which is
    checked first (AssertionError otherwise, before any product).  The
    catalog certificate proves D(ev(p)) = ev(abs_delta(p)) (see glcat), so
    D f = 0, and f is fixed by y -> y + t x for every t.  With
    t = -y11/x11 the new y has no y11 entry, so f(x, y) = f|_{y11=0}(x, y'),
    where y' is y - (y11/x11) x without its y11 coordinate, and f = 0
    exactly when f|_{y11=0} = 0.  Setting y11 to zero is a ring
    homomorphism, so f|_{y11=0} is assembled from the sliced generators."""
    vectors = tuple(relfinder._relation_vector(z, basis.vectors) for z in zeta)
    if not vectors:
        return vectors
    relfinder._check_highest_weight(basis.lam, vectors)
    sliced = [at_zero(g, Y11) for g in _gen_evals(cache)]
    M, _, _ = relfinder._assemble_matrix(vectors, sliced, cache)
    return vectors if M.shape[0] == 0 else None
