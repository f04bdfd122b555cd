"""Highest weight vector bases of the bidegree slices."""

import itertools

import numpy as np
import pytest

from conftest import one_matrix_kernel
from traceforge.glcat import AbsPoly, Partition, abs_delta
from traceforge.hwv import hwv_basis, hwv_json, hwv_verify, span_equal

# (l1, l2) -> (P, Q, s)
TABLE = {
    (7, 5): (155, 119, 36),
    (6, 6): (185, 155, 30),
    (8, 5): (203, 136, 67),
    (7, 6): (252, 203, 49),
    (9, 5): (284, 188, 96),
    (8, 6): (390, 284, 106),
    (7, 7): (418, 390, 28),
}


@pytest.fixture(scope="module")
def small_bases():
    return {lam: hwv_basis(Partition.of(*lam)) for lam in ((7, 5), (6, 6))}


def test_small_weights_full_table(small_bases):
    for lam, basis in small_bases.items():
        P, Q, s = TABLE[lam]
        assert basis.P == P
        assert basis.Q == Q
        assert basis.alpha_rank == Q
        assert basis.s == s == P - Q


def test_vectors_are_killed_by_raising(small_bases):
    for basis in small_bases.values():
        for v in basis.vectors:
            assert abs_delta(v).is_zero()
            assert v.bidegree() == tuple(basis.lam)


def test_basis_equals_the_one_matrix_kernel():
    # solving per module-profile block, then ordering by free column, gives
    # the kernel of the whole slice vector for vector, order included
    for lam in TABLE:
        basis = hwv_basis(Partition(*lam))
        rank, Q, vectors = one_matrix_kernel(Partition(*lam))
        assert (basis.alpha_rank, basis.Q) == (rank, Q), lam
        assert basis.vectors == vectors, lam


def test_blocked_threaded_matches_serial():
    lam = Partition(8, 6)
    serial = hwv_basis(lam, threads=1)
    threaded = hwv_basis(lam, threads=4)
    assert threaded == serial


def test_bases_are_memoized_per_cache_weight_and_thread_count():
    from traceforge.genmat import EvalCache

    lam = Partition(7, 5)
    cache = EvalCache()
    serial = hwv_basis(lam, cache=cache)
    assert hwv_basis((7, 5), cache=cache) is serial
    assert hwv_basis(lam) == serial and hwv_basis(lam) is not serial
    threaded = hwv_basis(lam, threads=2, cache=cache)
    assert threaded == serial and threaded is not serial
    assert set(cache._bases) == {(lam, 1), (lam, 2)}


def test_span_equal_rejects_different_weights(small_bases):
    assert not span_equal(small_bases[(7, 5)], small_bases[(6, 6)])


def test_span_equal_rejects_a_dependent_basis(small_bases):
    good = small_bases[(7, 5)]
    doubled = good._replace(vectors=(good.vectors[1],) + good.vectors[1:])
    assert span_equal(good, good)
    assert not span_equal(good, doubled)
    assert not span_equal(doubled, good)


def test_verify_report_exact_only(small_bases):
    rep = hwv_verify(small_bases[(6, 6)], evaluate=False)
    assert rep.ok
    assert rep.rank_ok and rep.abs_delta_zero
    assert rep.eval_delta_zero is None
    assert rep.checked_by_eval == 0


def test_verify_flags_a_broken_basis(small_bases):
    good = small_bases[(7, 5)]
    # swap in a vector that is not a highest weight vector
    bad_vec = AbsPoly.monomial(good.monomials[0])
    bad = good._replace(vectors=(bad_vec,) + good.vectors[1:])
    rep = hwv_verify(bad, evaluate=False)
    assert not rep.ok
    assert any("abs_delta" in f for f in rep.failures)


def test_hwv_json_shape(small_bases):
    doc = hwv_json(small_bases[(6, 6)])
    assert doc["lambda"] == [6, 6]
    assert doc["P"] == 185 and doc["Q"] == 155 and doc["s"] == 30
    assert len(doc["vectors"]) == 30
    for vec in doc["vectors"]:
        assert vec  # no empty vectors
        for name, frac in vec.items():
            assert name.startswith("u")
            num, den = frac.split("/")
            int(num), int(den)


def test_verify_accepts_a_relation_vector(small_bases, session_cache):
    # a relation evaluates to zero; that is not a failed check
    from traceforge.relfinder import relation_space, verify_zero_abs

    good = small_bases[(7, 5)]
    rel = relation_space(Partition(7, 5), cache=session_cache).relvectors[0]
    assert verify_zero_abs(rel, session_cache).zero
    basis = good._replace(vectors=(rel, good.vectors[0]))
    rep = hwv_verify(basis, evaluate=True, cache=session_cache)
    assert rep.ok
    assert rep.checked_by_eval == 2
    assert rep.failures == ()


def test_verify_flags_a_vector_not_killed_on_the_evaluated_side(small_bases, session_cache):
    # lowering a (7,5) vector gives a (6,6) vector that raising does not kill
    from traceforge.glcat import abs_delta1

    lowered = abs_delta1(small_bases[(7, 5)].vectors[0])
    bad = small_bases[(6, 6)]._replace(vectors=(lowered,))
    rep = hwv_verify(bad, evaluate=True, cache=session_cache)
    assert not rep.ok
    assert not rep.abs_delta_zero
    assert rep.eval_delta_zero is False
    assert any("raising image" in f for f in rep.failures)


@pytest.mark.parametrize("lam", [(7, 5), (6, 6)])
def test_generator_route_equals_the_trace_route(small_bases, session_cache, lam):
    # evaluation is a ring homomorphism: expanding phi(v) into trace
    # monomials, the independent oracle, gives the column of v in the
    # assembled matrix, divided by its scale
    from traceforge.genmat import eval_trace_expr_packed
    from traceforge.glcat import phi
    from traceforge.packedpoly import PackedPoly
    from traceforge.relfinder import _assemble_matrix

    vectors = small_bases[lam].vectors
    M, colscale, keys = _assemble_matrix(vectors, session_cache)
    for i in (0, len(vectors) // 2, len(vectors) - 1):
        by_gens = PackedPoly.from_column(keys, M[:, i], colscale[i])
        assert not by_gens.is_zero()
        assert eval_trace_expr_packed(phi(vectors[i]), session_cache) == by_gens


def test_verify_checks_the_assembled_columns(small_bases, session_cache, monkeypatch):
    # the evaluated check reads the M that relation_space solves: a fault in
    # one column of M flags that vector and no other, whether D is applied
    # to blocks of columns or to one column at a time
    from traceforge import hwv, relfinder
    from traceforge.packedpoly import NX, unpack_keys

    assemble = relfinder._assemble_matrix
    for d_terms, column in itertools.product((hwv._D_TERMS, 1), (3, 35)):

        def corrupt(polys, cache):
            M, colscale, keys = assemble(polys, cache)
            M = M.copy()
            # a monomial with a y11 factor, which D does not kill
            M[np.flatnonzero(unpack_keys(keys)[:, NX])[0], column] += 1
            return M, colscale, keys

        monkeypatch.setattr(relfinder, "_assemble_matrix", corrupt)
        monkeypatch.setattr(hwv, "_D_TERMS", d_terms)
        rep = hwv_verify(small_bases[(7, 5)], evaluate=True, cache=session_cache)
        assert not rep.ok
        assert rep.rank_ok and rep.abs_delta_zero and rep.eval_delta_zero is False
        assert rep.failures == (f"vector {column}: evaluated raising image nonzero",)


def test_verification_shares_the_products_of_the_relation_space(small_bases, session_store):
    # verification multiplies no word traces, and it makes exactly the
    # generator-monomial products the relation space needs
    from traceforge.genmat import EvalCache
    from traceforge.relfinder import relation_space

    for lam, r in (((7, 5), 1), ((6, 6), 2)):
        basis = small_bases[lam]
        cache = EvalCache(session_store)
        rep = hwv_verify(basis, evaluate=True, cache=cache)
        assert rep.ok and rep.checked_by_eval == basis.s
        assert cache.stats.mono_products == 0
        made = cache.stats.gen_products
        assert made > 0
        assert relation_space(Partition(*lam), cache=cache, use_cache=False).r == r
        assert cache.stats.gen_products == made, lam
        alone = EvalCache(session_store)
        relation_space(Partition(*lam), cache=alone, use_cache=False)
        assert alone.stats.gen_products == made, lam
        assert hwv_verify(basis, evaluate=True, cache=cache).ok
        assert cache.stats.gen_products == made
        assert cache.stats.mono_products == 0


def test_relation_space_solves_the_matrix_verification_kept(
    small_bases, session_store, monkeypatch
):
    # hwv_verify leaves its matrix on the cache's weight slot, and the
    # relation space of the same basis solves it without evaluating anything
    # again; the matrix stays on the slot for the next call of the weight
    from traceforge import relfinder
    from traceforge.genmat import EvalCache

    lam = Partition(6, 6)
    want = relfinder.relation_space(lam, cache=EvalCache(session_store), use_cache=False)
    cache = EvalCache(session_store)
    assert hwv_verify(small_bases[(6, 6)], evaluate=True, cache=cache).ok
    slot = cache._weight
    assert slot.bidegrees == {(6, 6)} and slot.last is not None
    kept = slot.last[1]

    def no_evaluation(*args):
        raise AssertionError("the kept matrix was assembled again")

    monkeypatch.setattr(relfinder, "leaf_groups", no_evaluation)
    got = relfinder.relation_space(lam, cache=cache, use_cache=False)
    assert got.zeta == want.zeta and got.relvectors == want.relvectors
    assert cache._weight is slot and slot.last[1] is kept


def test_a_kept_matrix_answers_only_its_own_polynomials(small_bases, session_store):
    # other polynomials, or the same ones with one vector scaled, are
    # assembled afresh, and their matrix takes the slot's place
    from traceforge import relfinder
    from traceforge.genmat import EvalCache

    vectors = small_bases[(6, 6)].vectors
    scaled = (vectors[0].scale(2),) + vectors[1:]
    for polys in (small_bases[(7, 5)].vectors, scaled):
        cache = EvalCache(session_store)
        assert hwv_verify(small_bases[(6, 6)], evaluate=True, cache=cache).ok
        kept = cache._weight.last[1]
        M, colscale, keys = relfinder._assemble_matrix(polys, cache)
        assert M is not kept[0]
        assert cache._weight.last == ([v.terms for v in polys], (M, colscale, keys))
        M2, colscale2, keys2 = relfinder._assemble_matrix(polys, EvalCache(session_store))
        assert np.array_equal(M, M2) and colscale == colscale2
        assert np.array_equal(keys, keys2)


def test_a_weight_pass_makes_each_product_once_and_drops_its_leaves(
    small_bases, session_store
):
    # hwv_verify and relation_space for (7,5), then for (6,6), on one cache:
    # no (7,5) leaf stays in the memo, and every product is made once, the
    # count of distinct proper prefixes and leaves
    from traceforge.genmat import EvalCache
    from traceforge.glcat import mono_bidegree
    from traceforge.relfinder import relation_space

    cache = EvalCache(session_store)
    used = set()
    for lam in ((7, 5), (6, 6)):
        basis = small_bases[lam]
        used |= {m for v in basis.vectors for m in v.terms}
        assert hwv_verify(basis, evaluate=True, cache=cache).ok
        relation_space(Partition(*lam), cache=cache, use_cache=False)
    assert cache._weight.bidegrees == {(6, 6)}
    assert all(mono_bidegree(m) != (7, 5) for m in cache._abs_monos)
    assert cache.stats.gen_products == 466
    assert cache.stats.gen_products == len(
        {m[:n] for m in used for n in range(2, len(m) + 1)}
    )
