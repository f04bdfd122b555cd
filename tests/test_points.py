"""Relation spaces from the values of a basis at points mod p.

The modular relation space bounds each relation count r from above by
s - rank_p(E_p), where E_p holds the values of the s basis vectors at points
mod p, and from below by the relation vectors it proves exactly.  These
tests check the values against the packed evaluations, the bound against
the frozen counts, and that a wrong candidate is never returned or stored.
"""

from fractions import Fraction

import numpy as np
import pytest

from traceforge import genmat, glcat, nullspace, relfinder
from traceforge.cache import CacheStore
from traceforge.genmat import EvalCache, sample_points
from traceforge.glcat import Partition, catalog_digest, gen_values
from traceforge.hwv import hwv_basis, hwv_verify
from traceforge.nullspace import PRIMES, NullStreamError, _rref_mod, modular_kernel
from traceforge.packedpoly import unpack_keys
from traceforge.relfinder import RELSPACE_SCHEMA, relation_space

# frozen relation counts r of the seven paper weights
R = {(7, 5): 1, (6, 6): 2, (8, 5): 1, (7, 6): 2, (9, 5): 2, (8, 6): 6, (7, 7): 2}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return CacheStore(tmp_path_factory.mktemp("points") / "store")


def _no_product(*args):
    raise AssertionError("a generator-monomial product was made")


def _packed_value(poly, point, p):
    """A packed evaluation at one point mod p, term by term in Python ints."""
    total = 0
    for exps, c in zip(unpack_keys(poly.keys).tolist(), poly.coeffs.tolist()):
        term = int(c)
        for x, e in zip(point.tolist(), exps):
            term = term * pow(x, e, p) % p
        total += term
    return total * pow(poly.den, -1, p) % p


def test_sample_points_are_residues_and_extend_their_prefix():
    p = PRIMES[0]
    few, many = sample_points(p, 5), sample_points(p, 40)
    assert few.shape == (5, 18) and many.shape == (40, 18)
    assert np.array_equal(few, many[:5])
    assert many.min() >= 0 and many.max() < p
    assert not np.array_equal(sample_points(PRIMES[1], 5), few)
    assert sample_points(p, 0).shape == (0, 18)


def test_generator_values_are_the_packed_evaluations_at_the_points(store):
    cache = EvalCache(store)
    packed = glcat._gen_evals(cache)
    for p in PRIMES[:2]:
        values = gen_values(p, 3, cache)
        assert values.shape == (30, 3) and values.dtype == np.int64
        for k, point in enumerate(sample_points(p, 3)):
            want = [_packed_value(poly, point, p) for poly in packed]
            assert values[:, k].tolist() == want, (p, k)


def test_generator_values_are_memoized_per_prime_and_extended(store, monkeypatch):
    cache = EvalCache(store)
    first = gen_values(PRIMES[0], 4, cache)
    more = gen_values(PRIMES[0], 9, cache)
    assert np.array_equal(more[:, :4], first)
    assert np.array_equal(more, gen_values(PRIMES[0], 9, EvalCache(store)))
    monkeypatch.setattr(genmat, "word_values", _no_product)
    assert np.array_equal(gen_values(PRIMES[0], 6, cache), more[:, :6])


def test_the_bound_at_points_is_the_relation_count_without_a_product(store, monkeypatch):
    # r_p = s - rank_p(E_p) is an upper bound on r that evaluates no
    # polynomial; with s + 16 points it is tight at every paper weight
    monkeypatch.setattr(relfinder, "leaf_groups", _no_product)
    cache = EvalCache(store)
    for lam, r in R.items():
        basis = hwv_basis(Partition(*lam), cache=cache)
        values = relfinder._BasisValues(basis)
        for p in PRIMES[:2]:
            E = values(p, basis.s + relfinder._EXTRA_POINTS, cache)
            pivots, _ = _rref_mod(E, p)
            assert basis.s - len(pivots) == r, (lam, p)
    assert cache.stats.gen_products == 0


def test_a_prime_dividing_a_denominator_is_skipped():
    # echelon None: the prime divides a denominator and has no residue
    seen = []

    def echelon(p):
        seen.append(p)
        if p == PRIMES[0]:
            return None
        return _rref_mod(np.array([[1, 1]]) % p, p)

    basis = modular_kernel(echelon, 2, lambda vectors: True)
    assert basis.vectors == ((Fraction(1), Fraction(-1)),)
    # the first attempt wants one prime, so the next prime stands in for it
    assert seen == list(PRIMES[:2])


def test_a_basis_with_a_denominator_divisible_by_p_has_no_values(store):
    # the generators have denominators 2 and 3 only; a basis vector scaled by
    # 1/5 has no value mod 5, but has one mod 7
    cache = EvalCache(store)
    basis = hwv_basis(Partition(7, 5), cache=cache)
    first = basis.vectors[0].scale(Fraction(1, 5))
    scaled = basis._replace(vectors=(first,) + basis.vectors[1:])
    values = relfinder._BasisValues(scaled)
    assert values(5, 4, cache) is None
    assert values(7, 4, cache).shape == (4, basis.s)
    assert relfinder._BasisValues(basis)(5, 4, cache) is not None


def _space_key(cache, lam):
    return f"relspace:v{RELSPACE_SCHEMA}:{lam[0]},{lam[1]}:{catalog_digest()}"


def _corrupting(monkeypatch, times):
    """The first `times` reconstructions get one coordinate changed where
    the true vector is zero; returns the corrupted candidates offered."""
    reconstruct = nullspace._reconstruct_vectors
    offered = []

    def corrupt(kernels, ncols):
        vectors = reconstruct(kernels, ncols)
        if vectors and len(offered) < times:
            v = list(vectors[0])
            c = next(i for i, x in enumerate(v) if not x)
            v[c] += 1
            vectors = [tuple(v)] + vectors[1:]
            offered.append(nullspace._normalize_first_one(v))
        return vectors

    monkeypatch.setattr(nullspace, "_reconstruct_vectors", corrupt)
    return offered


# the exact proof assembles the relation vectors
@pytest.mark.parametrize("route", ["assembled"])
def test_a_corrupted_coordinate_is_caught_by_the_exact_proof(route, tmp_path, store, monkeypatch):
    lam = Partition(7, 5)
    # the answer of a solve that nothing corrupts, on a cache of its own
    want = relation_space(lam, cache=EvalCache())
    cache = EvalCache(CacheStore(tmp_path))
    offered = _corrupting(monkeypatch, times=1)
    space = relation_space(lam, cache=cache)
    assert len(offered) == 1 and offered[0] not in want.zeta
    assert space.zeta == want.zeta
    stored = cache.store.get_json(_space_key(cache, lam))
    assert stored["zeta"] == [[f"{x.numerator}/{x.denominator}" for x in z] for z in want.zeta]


@pytest.mark.parametrize("route", ["assembled"])
def test_a_candidate_that_never_proves_is_never_stored(route, tmp_path, monkeypatch):
    lam = Partition(7, 5)
    cache = EvalCache(CacheStore(tmp_path))
    offered = _corrupting(monkeypatch, times=len(PRIMES))
    with pytest.raises(NullStreamError, match=r"\(7,5\): modular kernel failed after 20 primes"):
        relation_space(lam, cache=cache)
    # one attempt on each odd number of primes 1, 3, ..., 19, and the last
    # on all 20
    assert len(offered) == nullspace.DEFAULT_PRIME_BUDGET // 2 + 1
    assert cache.store.get_json(_space_key(cache, lam)) is None


def test_degenerate_points_overcount_and_fail_without_storing(tmp_path, monkeypatch):
    # all points equal: E_p has rank at most 1, so r_p > r at every prime;
    # the loop draws primes until its budget is spent, then names the weight
    # and the primes tried, and nothing is stored
    lam = Partition(7, 5)
    cache = EvalCache(CacheStore(tmp_path))
    basis = hwv_basis(lam, cache=cache)
    assert hwv_verify(basis, cache=cache).ok
    monkeypatch.setattr(
        genmat, "sample_points", lambda p, n: np.full((n, 18), 5, dtype=np.int64)
    )
    ranks = []

    def recording(E, p):
        out = _rref_mod(E, p)
        ranks.append(len(out[0]))
        return out

    monkeypatch.setattr(relfinder, "_rref_mod", recording)
    with pytest.raises(NullStreamError, match=r"\(7,5\): modular kernel failed after 20 primes"):
        relation_space(lam, cache=cache)
    assert len(ranks) == nullspace.DEFAULT_PRIME_BUDGET
    assert all(basis.s - rank > R[(7, 5)] for rank in ranks)
    assert cache.store.get_json(_space_key(cache, lam)) is None
