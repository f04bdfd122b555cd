"""Relation spaces from the values of a basis at integer points mod p.

The modular relation space bounds each relation count r from above by
s - rank_p(E_p), where E_p holds the values of the s basis vectors at
integer points mod p, and from below by the count m - c0; where they meet,
each relation vector is proven by its values at the points, mod enough
primes.  These tests check the values against the packed evaluations, the
bound against the frozen counts, the proof's premise, count, bound and
primes, and that a wrong candidate is never returned or stored.
"""

from fractions import Fraction
from math import lcm, prod

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


def test_sample_points_are_small_integers_and_extend_their_prefix():
    # one sequence of points for every prime, so the values mod p are the
    # rational values at the points reduced mod p
    few, many = sample_points(5), sample_points(40)
    assert few.shape == (5, 18) and many.shape == (40, 18)
    assert few.dtype == np.int64 and np.array_equal(few, many[:5])
    bound = genmat.POINT_BOUND
    assert set(many.ravel().tolist()) == set(range(-bound, bound + 1))
    assert sample_points(0).shape == (0, 18)


def test_generator_values_are_the_packed_evaluations_at_the_points(store):
    cache = EvalCache(store)
    packed = glcat._gen_evals(cache)
    for p in PRIMES[:2]:
        values = gen_values(p, 3, cache)
        assert values.shape == (30, 3) and values.dtype == np.int64
        for k, point in enumerate(sample_points(3) % p):
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
        values = relfinder._PointValues(basis.vectors)
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
    values = relfinder._PointValues(scaled.vectors)
    assert values(5, 4, cache) is None
    assert values(7, 4, cache).shape == (4, basis.s)
    assert relfinder._PointValues(basis.vectors)(5, 4, cache) is not None


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


# the exact proof checks the relation vectors at the points: the corrupted
# candidate passes the count, and its values are not zero
@pytest.mark.parametrize("route", ["points"])
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


@pytest.mark.parametrize("route", ["points"])
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
    monkeypatch.setattr(genmat, "sample_points", lambda n: np.full((n, 18), 5, dtype=np.int64))
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


def test_a_basis_of_other_than_m_vectors_is_refused_before_any_value(tmp_path, monkeypatch):
    # the count m - c0 holds for a basis of m vectors: with multiplicity
    # off by one the solve raises before a value is computed, and nothing
    # is stored
    lam = Partition(7, 5)
    cache = EvalCache(CacheStore(tmp_path))
    monkeypatch.setattr(relfinder, "multiplicity", lambda lam: glcat.multiplicity(lam) + 1)
    monkeypatch.setattr(relfinder, "gen_values", _no_product)
    with pytest.raises(AssertionError, match=r"\(7,5\) has 36 vectors, not the multiplicity 37"):
        relation_space(lam, cache=cache)
    assert cache.store.get_json(_space_key(cache, lam)) is None


def test_a_count_off_by_one_fails_without_storing(tmp_path, monkeypatch):
    # c0 one too large asks for fewer relations than every prime finds, so
    # no candidate proves and the loop spends its budget; c0 one too small
    # asks for more than s - rank_p, which no prime can give, and the solve
    # fails at once; either way the weight is named and nothing is stored
    lam = Partition(7, 5)
    c0 = glcat.c0
    for shift, match in (
        (1, r"\(7,5\): modular kernel failed after 20 primes"),
        (-1, r"\(7,5\): s - rank_p = 1 is below the count m - c0 = 2"),
    ):
        cache = EvalCache(CacheStore(tmp_path / str(shift)))
        monkeypatch.setattr(relfinder, "c0", lambda lam, shift=shift: c0(lam) + shift)
        with pytest.raises(NullStreamError, match=match):
            relation_space(lam, cache=cache)
        assert cache.store.get_json(_space_key(cache, lam)) is None


def _exact_value(poly, point):
    """A packed evaluation at one integer point, exactly."""
    total = 0
    for exps, c in zip(unpack_keys(poly.keys).tolist(), poly.coeffs.tolist()):
        term = int(c)
        for x, e in zip(point.tolist(), exps):
            term *= x**e
        total += term
    return Fraction(total, poly.den)


def test_the_value_bound_bounds_the_values_at_the_points(store):
    # at a few points, L v(x) is an integer of absolute value at most B for
    # basis vectors, which are no relations, and for a relation vector
    cache = EvalCache(store)
    gens = glcat._gen_evals(cache)
    points = sample_points(6)
    ev = [[_exact_value(g, x) for x in points] for g in gens]
    space = relation_space(Partition(7, 5), cache=cache)
    basis = hwv_basis(Partition(7, 5), cache=cache)
    for v in (*basis.vectors[:3], space.relvectors[0]):
        L = v.den * lcm(*(prod(gens[g].den for g in m) for m in v.nums))
        [B] = relfinder._value_bounds([v], gens)
        values = [
            sum(Fraction(c, v.den) * prod(ev[g][k] for g in m) for m, c in v.nums.items())
            for k in range(len(points))
        ]
        assert all((L * x).denominator == 1 and abs(L * x) <= B for x in values)
        assert any(values) == (v is not space.relvectors[0])


@pytest.mark.parametrize("lam", sorted(R), ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_the_proof_takes_the_fewest_primes_that_pass_twice_the_bound(lam, store, monkeypatch):
    # the relation vectors are checked mod PRIMES in order, at every point
    # the rank was taken at, until the product of the primes exceeds 2 B:
    # one prime fewer would not
    taken = []
    call = relfinder._PointValues.__call__

    def recorded(values, p, n, cache):
        taken.append((values.vectors, p, n))
        return call(values, p, n, cache)

    monkeypatch.setattr(relfinder._PointValues, "__call__", recorded)
    cache = EvalCache()
    space = relation_space(Partition(*lam), cache=cache)
    basis = hwv_basis(Partition(*lam), cache=cache)
    n = basis.s + relfinder._EXTRA_POINTS
    assert taken[0] == (basis.vectors, PRIMES[0], n)
    checked = [p for vectors, p, points in taken[1:] if vectors == space.relvectors]
    assert len(checked) == len(taken) - 1 and all(points == n for _, _, points in taken)
    assert checked == list(PRIMES[: len(checked)])
    bound = 2 * max(relfinder._value_bounds(space.relvectors, glcat._gen_evals(cache)))
    assert prod(checked) > bound >= prod(checked[:-1])
