"""Relation spaces at total degree 12 and the structures built on them.

The degree 13 and 14 slices take minutes and live in the acceptance module
behind the extended gate; everything here stays in the seconds range.
"""

import hashlib
import importlib.resources as ir

from fractions import Fraction

import numpy as np
import pytest

from traceforge import relfinder
from traceforge.cache import CacheStore
from traceforge.genmat import EvalCache
from traceforge.glcat import AbsPoly, Partition, abs_delta, abs_monomials, phi
from traceforge.hwv import hwv_basis
from traceforge.packedpoly import PackedPoly, sum_scaled
from traceforge.phiparse import parse_phi
from traceforge.relfinder import (
    PARAMETER_SPLIT,
    RELSPACE_SCHEMA,
    ParameterSplit,
    RelationSpace,
    build_certificate,
    leading_analysis,
    leading_monomial,
    membership,
    new_relations,
    orbit,
    reduce_hsop,
    relation_space,
    verify_zero,
    verify_zero_abs,
    write_certificates,
)

DEG12_LEADING = {
    "u5_0*u8_0",
    "u5_0*u8_1",
    "u5_1*u8_0",
    "u5_1*u8_1",
    "u7_0^2",
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    store = CacheStore(tmp_path_factory.mktemp("relcache") / "store")
    return EvalCache(store=store)


@pytest.fixture(scope="module")
def s75(cache):
    return relation_space(Partition(7, 5), cache=cache)


@pytest.fixture(scope="module")
def s66(cache):
    return relation_space(Partition(6, 6), cache=cache)


def test_parameter_split_shape():
    hsop = {g.gid for g in PARAMETER_SPLIT.hsop}
    comp = {g.gid for g in PARAMETER_SPLIT.complement}
    assert len(hsop) == 15 and len(comp) == 15
    assert hsop | comp == set(range(30))
    assert not hsop & comp


@pytest.mark.parametrize(
    "hsop, complement",
    [
        (PARAMETER_SPLIT.hsop[1:], PARAMETER_SPLIT.complement),  # a generator missing
        (PARAMETER_SPLIT.hsop, PARAMETER_SPLIT.complement + PARAMETER_SPLIT.hsop[:1]),
    ],
    ids=["missing", "repeated"],
)
def test_parameter_split_must_partition_the_generators(hsop, complement):
    with pytest.raises(ValueError, match="partition"):
        ParameterSplit(hsop, complement)
    with pytest.raises(ValueError, match="partition"):
        PARAMETER_SPLIT._replace(hsop=hsop, complement=complement)
    assert ParameterSplit(*PARAMETER_SPLIT) == PARAMETER_SPLIT


def test_relation_dimensions(s75, s66):
    assert s75.r == 1
    assert s66.r == 2


def test_zeta_vectors_are_hwv_relations(s75, s66):
    for space in (s75, s66):
        for v in space.relvectors:
            assert abs_delta(v).is_zero()
            assert v.bidegree() == tuple(space.lam)
        for z in space.zeta:
            lead = next(c for c in z if c)
            assert lead == 1


def test_orbit_sizes(s75, s66):
    assert len(orbit(s75)) == 1 * 3  # a = 2 ladder
    assert len(orbit(s66)) == 2 * 1  # a = 0, two vectors
    for w in orbit(s75):
        assert not w.is_zero()


def test_orbit_ladder_ends_at_lowest_weight(s75):
    # applying the lowering derivation once more kills the last rung
    from traceforge.glcat import abs_delta1

    last = orbit(s75)[-1]
    assert abs_delta1(last).is_zero()


def test_leading_analysis_degree12(s75, s66):
    rep = leading_analysis([s75, s66])
    assert set(rep.names) == DEG12_LEADING
    assert len(rep.entries) == 5
    assert rep.absorbed == ()


def test_leading_monomials_avoid_hsop(s75, s66):
    hsop = set(PARAMETER_SPLIT.hsop)
    for space in (s75, s66):
        for vec in orbit(space):
            red = reduce_hsop(vec)
            lead = leading_monomial(red)
            assert lead is not None
            assert not any(g in hsop for g in lead)


def test_membership_of_bundled_relations(s66, s75, cache):
    data = ir.files("traceforge") / "data"
    p_prime = parse_phi((data / "v66prime.phi").read_text())
    p_second = parse_phi((data / "v66second.phi").read_text())
    p75 = parse_phi((data / "v75.phi").read_text())
    assert membership(p_prime, s66)
    assert membership(p_second, s66)
    assert membership(p75, s75)
    with pytest.raises(ValueError):
        membership(p75, s66)


def test_membership_rejects_non_relation(s75):
    probe = AbsPoly.monomial(s75.basis.monomials[0])
    # a bare monomial of the right bidegree is not in the relation span
    assert probe.bidegree() == (7, 5)
    if membership(probe, s75):
        pytest.fail("monomial unexpectedly in the relation space")


def test_verify_zero_reports(s66, cache):
    data = ir.files("traceforge") / "data"
    p = parse_phi((data / "v66prime.phi").read_text())
    rep = verify_zero_abs(p, cache)
    assert rep.zero
    assert rep.residual_terms == 0
    assert rep.residual_sample == ()

    bad = p + AbsPoly.monomial(s66.basis.monomials[0])
    rep2 = verify_zero_abs(bad, cache)
    assert not rep2.zero
    assert rep2.residual_terms > 0
    assert 0 < len(rep2.residual_sample) <= 10
    assert rep2.digest


def test_residual_report_of_a_perturbed_relation(cache):
    # frozen from the report before verify_zero and verify_zero_abs shared
    # one summary: the same candidate must give byte-identical payloads
    data = ir.files("traceforge") / "data"
    m = abs_monomials(Partition(7, 5))[0]
    assert m == (0, 0, 0, 1, 2, 2)
    v75 = parse_phi((data / "v75.phi").read_text())
    bad = v75 + AbsPoly.monomial(m).scale(Fraction(1, 3))
    rep = verify_zero_abs(bad, cache)
    assert not rep.zero
    assert rep.residual_terms == 5184
    assert rep.residual_sample[:3] == (
        ("7 0 0 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0", "64/3"),
        ("7 0 0 4 0 0 0 0 1 0 0 0 0 0 0 0 0 0", "160/3"),
        ("7 0 0 4 0 0 0 0 0 0 0 0 0 1 0 0 0 0", "160/3"),
    )
    assert rep.residual_sample[7] == ("7 0 0 3 0 0 0 0 1 0 0 0 0 1 0 0 0 0", "128/1")
    assert len(rep.residual_sample) == 10
    assert rep.digest == (
        "1b008d145c99f792f0ed8d24cc31328c53c431fb49a9be72ef82415db3f7c87a"
    )
    assert verify_zero(phi(bad), cache) == rep
    # the column route and the trace route agree on a zero candidate too
    assert verify_zero(phi(v75), cache) == verify_zero_abs(v75, cache)
    assert verify_zero_abs(v75, cache).zero


def test_generator_products_live_on_the_cache(cache):
    mono = (0, 1, 2)
    before = cache.stats.gen_products
    p = relfinder.eval_abs_monomial(mono, cache)
    assert relfinder.eval_abs_monomial(mono, cache) is p
    assert cache.stats.gen_products - before <= 2
    # a second cache does not see the first one's memo
    other = EvalCache(store=cache.store)
    assert relfinder.eval_abs_monomial(mono, other) == p
    assert other.stats.gen_products == 2
    assert other.stats.word_evals == 0


def test_verify_zero_trace_expr(cache):
    e = phi(AbsPoly.gen(1, 0) * AbsPoly.gen(1, 2) - AbsPoly.gen(1, 1) * AbsPoly.gen(1, 1))
    rep = verify_zero(e, cache)
    # this difference is not a relation, so it must leave a residual
    assert not rep.zero


def test_exact_and_modular_agree(cache):
    for lam in (Partition(7, 5), Partition(6, 6)):
        a = relation_space(lam, mode="exact", cache=cache, use_cache=False)
        b = relation_space(lam, mode="modular", cache=cache, use_cache=False)
        assert a.zeta == b.zeta


def test_unknown_mode_rejected_before_any_work(cache, s75, monkeypatch):
    # warm: the stored relspace entry for (7,5) must not answer a bad mode
    with pytest.raises(ValueError, match="unknown mode"):
        relation_space(Partition(7, 5), mode="bogus", cache=cache)

    # cold: the mode is checked before the coefficient matrix is assembled
    def assemble(*args):
        raise AssertionError("matrix assembled for an unknown mode")

    monkeypatch.setattr(relfinder, "_assemble_matrix", assemble)
    with pytest.raises(ValueError, match="unknown mode"):
        relation_space(Partition(6, 6), mode="bogus", cache=cache, use_cache=False)


# (shape, colscale, sha256 of the nonzero rows of M) of the degree-12
# coefficient matrices.  The digests are frozen from earlier implementations
# that kept all-zero rows in M: first the rows of monomials in no basis
# vector, then the keys at which every column cancels (1143 rows for (7, 5),
# 1881 for (6, 6)).  Dropping those rows must leave the nonzero rows as they
# were, so M itself now hashes to the same digest.
ASSEMBLED = {
    (7, 5): (
        (8145, 36),
        [3, 1, 1, 1, 1, 1, 1, 3, 3, 9, 1, 3, 3, 6, 6, 1, 1, 1, 1, 6, 1, 1, 2, 1,
         12, 1, 4, 1, 3, 9, 1, 1, 3, 1, 1, 1],
        "dd5b377ca810142c2cd4dbb2d1bcd9d31ccdc9839654ee05bcba741eaa80fb6d",
    ),
    (6, 6): (
        (15331, 30),
        [1, 1, 3, 1, 1, 2, 9, 1, 1, 3, 27, 1, 3, 3, 1, 1, 1, 6, 1, 1, 2, 3, 27, 9,
         1, 1, 1, 1, 4, 1],
        "f32bdc418895fc448aca08ee479bf90b03b24a2aaa08104ad239047ae66c8ca2",
    ),
    # frozen from the implementation before products went through sum tables
    (8, 5): (
        (10929, 67),
        [1, 2, 1, 3, 1, 3, 6, 1, 1, 3, 6, 1, 9, 1, 1, 1, 1, 1, 2, 3, 2, 3, 9, 1,
         4, 3, 6, 9, 9, 1, 1, 3, 27, 1, 3, 27, 27, 1, 3, 6, 1, 1, 1, 1, 1, 1, 1, 1,
         3, 1, 1, 6, 1, 1, 6, 1, 1, 1, 4, 6, 6, 1, 1, 3, 1, 1, 1],
        "4b06e4d4fe803543d4f02810fc4ea368f752c2ac4c9b19bfa3f24a0272b01317",
    ),
}


@pytest.mark.parametrize("lam", sorted(ASSEMBLED), ids=lambda lam: f"{lam[0]},{lam[1]}")
def test_assembled_matrix_is_pinned(lam, cache):
    shape, colscale, nonzero_sha = ASSEMBLED[lam]
    basis = hwv_basis(Partition(*lam))
    M, got_scale, keys = relfinder._assemble_matrix(basis.vectors, cache)
    assert M.dtype == np.int64 and M.shape == shape
    assert len(keys) == shape[0] and bool(np.all(keys[1:] > keys[:-1]))
    assert got_scale == colscale
    assert hashlib.sha256(M.tobytes()).hexdigest() == nonzero_sha
    assert hashlib.sha256(M[M.any(axis=1)].tobytes()).hexdigest() == nonzero_sha


def test_mixed_routes_assemble_the_same_matrix(cache, monkeypatch):
    # a fresh leaf is placed through its sum table, a memoized one by a
    # search of its keys: with half of the (6,6) monomials memoized, and
    # with the fresh ones on four threads, M is the all-fresh M
    import os
    import sys
    import threading

    from traceforge import glcat
    from traceforge.packedpoly import SumTable

    vectors = hwv_basis(Partition(6, 6)).vectors
    used = list(dict.fromkeys(m for v in vectors for m in v.terms))

    def assemble(memoized):
        run = EvalCache(store=cache.store)
        glcat.eval_abs_monomials(memoized, run)
        before = run.stats.gen_products
        M, colscale, keys = relfinder._assemble_matrix(vectors, run)
        # some leaves were memoized and some fresh (or all fresh)
        assert (before > 0) == bool(memoized) and run.stats.gen_products > before
        # no fresh leaf of the call outlives it in the memo
        fresh = {m for m in used if len(m) > 1} - set(memoized)
        assert fresh.isdisjoint(run._abs_monos)
        return (M, colscale, keys), run.stats.gen_products

    (M, colscale, keys), products = assemble([])
    assert products == len({m[:n] for m in used for n in range(2, len(m) + 1)})
    mixed, mixed_products = assemble(used[::2])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(glcat, "_PARALLEL_TERMS", 0)
    product = SumTable.product
    threads = set()

    def recorded_product(table, p):
        threads.add(threading.get_ident())
        return product(table, p)

    monkeypatch.setattr(SumTable, "product", recorded_product)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded, threaded_products = assemble(used[1::2])
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1
    # every product is made once, whichever route it takes
    assert mixed_products == threaded_products == products
    for got in (mixed, threaded):
        assert got[0].dtype == M.dtype and np.array_equal(got[0], M)
        assert got[1] == colscale
        assert np.array_equal(got[2], keys)


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threads"])
def test_a_fresh_leaf_dies_once_it_is_placed(threaded, cache, monkeypatch):
    # at each placement, the memo holds no more (6,6) monomials than there
    # are product groups in flight, and none once M is assembled
    import os
    import threading

    from traceforge import glcat
    from traceforge.glcat import ProductGroup, mono_bidegree

    if threaded:
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(glcat, "_PARALLEL_TERMS", 0)
    lock = threading.Lock()
    in_flight = [0]
    seen: list[tuple[int, int]] = []
    placed = set()
    run = EvalCache(store=cache.store)
    products = ProductGroup.products

    def counted_products(grp, c):
        with lock:
            in_flight[0] += 1
        try:
            yield from products(grp, c)
        finally:
            with lock:
                in_flight[0] -= 1

    place = relfinder._Columns.place

    def recorded_place(cols, m, pos, e):
        with lock:
            full = sum(mono_bidegree(k) == (6, 6) for k in list(run._abs_monos))
            seen.append((full, in_flight[0]))
            placed.add(m)
        place(cols, m, pos, e)

    monkeypatch.setattr(ProductGroup, "products", counted_products)
    monkeypatch.setattr(relfinder._Columns, "place", recorded_place)
    vectors = hwv_basis(Partition(6, 6)).vectors
    used = {m for v in vectors for m in v.terms}
    relfinder._assemble_matrix(vectors, run)
    assert placed == used and len(seen) == len(used)
    assert max(n for _, n in seen) >= 1
    assert all(full <= n for full, n in seen)
    assert not any(mono_bidegree(k) == (6, 6) for k in run._abs_monos)


def _bundled(name: str) -> AbsPoly:
    return parse_phi((ir.files("traceforge") / "data" / name).read_text())


def _no_assembly(*args):
    raise AssertionError("a member of the slot was assembled afresh")


def test_a_member_of_the_slot_is_evaluated_from_its_matrix(cache, monkeypatch):
    # after hwv_verify of (6,6), both (6,6) files and a basis vector (whose
    # evaluation is not zero) are combinations of the slot's columns: they
    # make no product and report what a fresh cache reports
    from traceforge.hwv import hwv_verify

    basis = hwv_basis(Partition(6, 6))
    candidates = [_bundled("v66prime.phi"), _bundled("v66second.phi"), basis.vectors[3]]
    want = [verify_zero_abs(p, EvalCache(store=cache.store)) for p in candidates]
    run = EvalCache(store=cache.store)
    assert hwv_verify(basis, evaluate=True, cache=run).ok
    before = run.stats.gen_products
    monkeypatch.setattr(relfinder, "leaf_groups", _no_assembly)
    assert [verify_zero_abs(p, run) for p in candidates] == want
    assert run.stats.gen_products == before
    assert [rep.zero for rep in want] == [True, True, False]


@pytest.mark.parametrize("scale", [1, 1 << 70], ids=["int64", "big-weight"])
@pytest.mark.parametrize("big", [False, True], ids=["int64-M", "object-M"])
def test_slot_combination_of_inhomogeneous_columns(big, scale, cache, monkeypatch):
    # the same sum in int64 and, when M or the bound of the weighted columns
    # reaches 2^62, in object dtype one column at a time
    shared = (0, 1)
    polys = [
        AbsPoly({shared: Fraction(1), (0, 0, 1): Fraction(-2, 3)}),
        AbsPoly({shared: Fraction(5, 2), (2,): Fraction(1)}),
        AbsPoly({(1, 2): Fraction(7), shared: Fraction(-1)}),
    ]
    if big:
        polys.insert(1, AbsPoly({shared: Fraction(1 << 60), (1, 2): Fraction(1, 3)}))
    p = AbsPoly()
    for k, v in enumerate(polys):
        p = p + v.scale(Fraction(scale * (k + 2), 7))
    want = verify_zero_abs(p, EvalCache(store=cache.store))
    run = EvalCache(store=cache.store)
    M, _, _ = relfinder._assemble_matrix(polys, run)
    assert (M.dtype == object) == big
    monkeypatch.setattr(relfinder, "leaf_groups", _no_assembly)
    assert verify_zero_abs(p, run) == want


def test_beyond_packed_capacity_nothing_is_evaluated():
    # bidegree (8,8): its y degree does not fit the packed fields, which the
    # bidegree shows before a generator or word trace is evaluated
    from traceforge.packedpoly import PackedCapacityError

    fresh = EvalCache()
    with pytest.raises(PackedCapacityError, match=r"\(8,8\)"):
        verify_zero_abs(parse_phi("t4^2*t4^2*t4^2*t4^2"), fresh)
    assert (fresh.stats.word_evals, fresh.stats.gen_products) == (0, 0)


@pytest.mark.parametrize("k", [Fraction(1, 3), Fraction(-4)])
def test_a_perturbed_candidate_is_assembled_afresh(k, cache):
    # a relation plus k times a monomial of its basis: not in the span of
    # the slot's columns, so it is assembled, and its report is a fresh one
    from traceforge.hwv import hwv_verify

    basis = hwv_basis(Partition(6, 6))
    m = next(m for v in basis.vectors for m in v.terms)
    assert not abs_delta(AbsPoly.monomial(m)).is_zero()  # not a highest weight vector
    bad = _bundled("v66second.phi") + AbsPoly.monomial(m).scale(k)
    want = verify_zero_abs(bad, EvalCache(store=cache.store))
    run = EvalCache(store=cache.store)
    assert hwv_verify(basis, evaluate=True, cache=run).ok
    before = run.stats.gen_products
    got = verify_zero_abs(bad, run)
    assert run.stats.gen_products > before
    assert got == want and not got.zero


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_assembled_columns_are_sums_of_monomial_evaluations(big, cache):
    shared = (0, 1)
    polys = [
        AbsPoly({shared: Fraction(1), (0, 0, 1): Fraction(-2, 3)}),
        AbsPoly({shared: Fraction(5, 2), (2,): Fraction(1)}),
        AbsPoly({(1, 2): Fraction(7), shared: Fraction(-1)}),
    ]
    if big:
        # a column whose bound reaches 2^62 puts all of M on the object path
        polys.insert(1, AbsPoly({shared: Fraction(1 << 60), (1, 2): Fraction(1, 3)}))
    M, colscale, keys = relfinder._assemble_matrix(polys, cache)
    assert M.dtype == (object if big else np.int64)
    assert M.shape == (len(keys), len(polys)) and M.any(axis=1).all()
    for i, v in enumerate(polys):
        want = sum_scaled(
            (relfinder.eval_abs_monomial(m, cache), c) for m, c in v.terms.items()
        )
        assert PackedPoly.from_column(keys, M[:, i], colscale[i]) == want, i


def test_sorted_union_merges_in_batches(monkeypatch):
    rng = np.random.default_rng(5)
    parts = [rng.integers(-50, 50, size=n) for n in (0, 7, 1, 30, 0, 12)]
    want = np.unique(np.concatenate(parts))
    assert np.array_equal(relfinder._sorted_union(parts), want)
    monkeypatch.setattr(relfinder, "_UNION_BATCH", 5)
    assert np.array_equal(relfinder._sorted_union(parts), want)
    assert relfinder._sorted_union([]).dtype == np.int64


def test_relation_space_cache_round_trip(cache):
    first = relation_space(Partition(6, 6), cache=cache)
    again = relation_space(Partition(6, 6), cache=cache)
    assert again.from_cache
    assert again.zeta == first.zeta
    assert [v for v in again.relvectors] == [v for v in first.relvectors]


def test_relation_space_summary_is_versioned(cache, s66):
    digest = relfinder.catalog_digest(cache)
    summary = cache.store.get_json(f"relspace:v2:6,6:{digest}")
    assert set(summary) == {"lambda", "zeta", "digest"}
    assert cache.store.get_json(f"relspace:6,6:{digest}") is None


def test_new_relations_degree12(cache):
    rep = new_relations(12, cache=cache)
    by_lam = {tuple(item.lam): item for item in rep.items}
    assert by_lam[(7, 5)].old == 0 and by_lam[(7, 5)].new == 1
    assert by_lam[(6, 6)].old == 0 and by_lam[(6, 6)].new == 2


def test_certificates(s75, cache, monkeypatch):
    cert = build_certificate(s75, 0)
    doc = cert.to_json()
    assert doc["lambda"] == [7, 5]
    assert doc["index"] == 0
    assert doc["leading"] in DEG12_LEADING
    keys = write_certificates(s75, cache.store)
    assert len(keys) == 1
    assert keys[0].startswith(f"relcert:v1:7,5:0:{s75.catalog_digest}:{RELSPACE_SCHEMA}:")
    assert cache.store.get_json(keys[0]) == doc
    # a stored certificate is not built or written again
    def build(*args):
        raise AssertionError("stored certificate built again")

    monkeypatch.setattr(relfinder, "build_certificate", build)
    writes = cache.store.stats.writes
    assert write_certificates(s75, cache.store) == keys
    assert cache.store.stats.writes == writes


def test_new_relations_rejects_unknown_degree(cache):
    with pytest.raises(ValueError):
        new_relations(11, cache=cache)
