"""Highest weight vector bases of the bidegree slices."""

import numpy as np
import pytest

from conftest import expected_products, one_matrix_kernel
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


def test_bases_are_memoized_per_cache_and_weight():
    # threads is accepted and ignored, so the memo answers a call that
    # passes it
    from traceforge.genmat import EvalCache

    lam = Partition(7, 5)
    cache = EvalCache()
    serial = hwv_basis(lam, cache=cache)
    assert hwv_basis((7, 5), cache=cache) is serial
    assert hwv_basis(lam) == serial and hwv_basis(lam) is not serial
    assert hwv_basis(lam, threads=2, cache=cache) is serial
    assert set(cache._bases) == {lam}


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
    assert rep.failures == ()


def test_an_evaluated_verify_needs_a_cache(small_bases, monkeypatch):
    # evaluate=True, the default, certifies the catalog on the cache it is
    # given: with none, it raises before the catalog is touched
    from traceforge import hwv

    monkeypatch.setattr(hwv, "catalog", lambda cache: pytest.fail("catalog reached"))
    with pytest.raises(ValueError, match="needs a cache"):
        hwv_verify(small_bases[(6, 6)])


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
    # a relation evaluates to zero (on a cache that holds no relation
    # space, so it is assembled); that is not a failed check
    from traceforge.genmat import EvalCache
    from traceforge.relfinder import relation_space, verify_zero_abs

    good = small_bases[(7, 5)]
    rel = relation_space(Partition(7, 5), cache=session_cache).relvectors[0]
    assert verify_zero_abs(rel, EvalCache(session_cache.store)).zero
    basis = good._replace(vectors=(rel, good.vectors[0]))
    rep = hwv_verify(basis, evaluate=True, cache=session_cache)
    assert rep.ok
    assert rep.failures == ()


def test_verify_flags_a_vector_not_killed_on_the_evaluated_side(small_bases, session_cache):
    # lowering a (7,5) vector gives a (6,6) vector that raising does not
    # kill: D does not kill its evaluation (D ev = ev abs_delta, proven by
    # the catalog certificate), and abs_delta alone flags it
    from traceforge.genmat import eval_delta, eval_trace_expr_packed
    from traceforge.glcat import abs_delta1, phi

    lowered = abs_delta1(small_bases[(7, 5)].vectors[0])
    assert not eval_delta(eval_trace_expr_packed(phi(lowered), session_cache)).is_zero()
    bad = small_bases[(6, 6)]._replace(vectors=(lowered,))
    rep = hwv_verify(bad, evaluate=True, cache=session_cache)
    assert not rep.ok
    assert rep.rank_ok and not rep.abs_delta_zero
    assert rep.failures == ("vector 0: abs_delta image nonzero",)


@pytest.mark.parametrize("lam", [(7, 5), (6, 6)])
def test_generator_route_equals_the_trace_route(small_bases, session_cache, lam):
    # evaluation is a ring homomorphism: expanding phi(v) into trace
    # monomials, the independent oracle, gives the column of v in the
    # assembled matrix, divided by its scale
    from traceforge.genmat import eval_trace_expr_packed
    from traceforge.glcat import _gen_evals, phi
    from traceforge.packedpoly import PackedPoly
    from traceforge.relfinder import _assemble_matrix

    vectors = small_bases[lam].vectors
    M, colscale, keys = _assemble_matrix(vectors, _gen_evals(session_cache), session_cache)
    for i in (0, len(vectors) // 2, len(vectors) - 1):
        by_gens = PackedPoly.from_column(keys, M[:, i], colscale[i])
        assert not by_gens.is_zero()
        assert eval_trace_expr_packed(phi(vectors[i]), session_cache) == by_gens


def test_a_held_space_answers_only_its_members(small_bases, session_store):
    # on a cache that holds the (6,6) relation space, a basis vector is no
    # member: it is assembled, and its report is a fresh cache's; so are
    # the matrices of other polynomials, or of the same ones with one
    # vector scaled
    from traceforge import relfinder
    from traceforge.genmat import EvalCache
    from traceforge.glcat import _gen_evals

    cache = EvalCache(session_store)
    relfinder.relation_space(Partition(6, 6), cache=cache)
    vectors = small_bases[(6, 6)].vectors
    made = cache.stats.gen_products
    rep = relfinder.verify_zero_abs(vectors[3], cache)
    assert cache.stats.gen_products > made and not rep.zero
    assert rep == relfinder.verify_zero_abs(vectors[3], EvalCache(session_store))
    scaled = (vectors[0].scale(2),) + vectors[1:]
    for polys in (small_bases[(7, 5)].vectors, scaled):
        fresh = EvalCache(session_store)
        M, colscale, keys = relfinder._assemble_matrix(polys, _gen_evals(cache), cache)
        M2, colscale2, keys2 = relfinder._assemble_matrix(polys, _gen_evals(fresh), fresh)
        assert np.array_equal(M, M2) and colscale == colscale2
        assert np.array_equal(keys, keys2)


def test_a_weight_pass_makes_no_product(small_bases):
    # hwv_verify and relation_space for (7,5), then for (6,6), on one cache:
    # verification makes no product, and the relation vectors are proven by
    # the count and their values at points, which multiply no generator
    # monomial (the slice proof made 200 products here, as expected_products
    # counts them)
    from traceforge.genmat import EvalCache
    from traceforge.relfinder import relation_space

    cache = EvalCache()
    spaces = []
    for lam in ((7, 5), (6, 6)):
        assert hwv_verify(small_bases[lam], evaluate=True, cache=cache).ok
        spaces.append(relation_space(Partition(*lam), cache=cache))
    assert set(cache._spaces) == {(7, 5), (6, 6)}
    assert [s.r for s in spaces] == [1, 2]
    assert expected_products([s.relvectors for s in spaces]) == 200
    assert cache.stats.gen_products == cache.stats.mono_products == 0
