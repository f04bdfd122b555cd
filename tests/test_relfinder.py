"""Relation spaces at total degree 12 and the structures built on them.

The degree 13 and 14 criteria live in the acceptance module; everything here
stays in the seconds range.
"""

import hashlib
import importlib.resources as ir

from fractions import Fraction

import numpy as np
import pytest

from conftest import expected_products
from traceforge import relfinder
from traceforge.cache import CacheStore
from traceforge.genmat import EvalCache
from traceforge.glcat import AbsPoly, Partition, abs_delta, abs_monomials, phi
from traceforge.hwv import hwv_basis
from traceforge.packedpoly import PackedPoly, sum_scaled
from traceforge.phiparse import parse_phi
from traceforge.tracelang import parse_trace
from traceforge.relfinder import (
    LAMBDAS_BY_DEGREE,
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
    probe = AbsPoly.monomial(hwv_basis(Partition(7, 5)).monomials[0])
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

    bad = p + AbsPoly.monomial(hwv_basis(Partition(6, 6)).monomials[0])
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
    # the column route and the trace route agree on a zero candidate too;
    # a fresh cache holds no relation space, so v75 is assembled
    fresh = EvalCache(store=cache.store)
    assert verify_zero(phi(v75), cache) == verify_zero_abs(v75, fresh)
    assert verify_zero_abs(v75, fresh).zero


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


UNKNOWN_MODES = ("bogus", "exact")  # modular is the one mode


def test_unknown_mode_rejected_before_any_work(cache, s75, monkeypatch):
    # warm: the stored relspace entry for (7,5) must not answer another mode
    for mode in UNKNOWN_MODES:
        with pytest.raises(ValueError, match="unknown mode"):
            relation_space(Partition(7, 5), mode=mode, cache=cache)

    # cold: the mode is checked before the coefficient matrix is assembled
    def assemble(*args):
        raise AssertionError("matrix assembled for an unknown mode")

    monkeypatch.setattr(relfinder, "_assemble_matrix", assemble)
    for mode in UNKNOWN_MODES:
        with pytest.raises(ValueError, match="unknown mode"):
            relation_space(Partition(6, 6), mode=mode, cache=cache, use_cache=False)

    # new_relations checks it before it asks for any relation space
    def space(*args, **kwargs):
        raise AssertionError("relation space asked for an unknown mode")

    monkeypatch.setattr(relfinder, "relation_space", space)
    for mode in UNKNOWN_MODES:
        with pytest.raises(ValueError, match="unknown mode"):
            new_relations(12, mode=mode, cache=cache)


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


def test_mixed_routes_assemble_the_same_matrix(cache):
    # a fresh leaf is placed through its sum table, a memoized one by a
    # search of its keys: with half of the (6,6) monomials memoized, M is
    # the all-fresh M
    from traceforge import glcat

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
    assert products == expected_products([vectors])
    mixed, mixed_products = assemble(used[::2])
    # every product is made once, whichever route it takes
    assert mixed_products == expected_products([vectors], used[::2])
    assert mixed[0].dtype == M.dtype and np.array_equal(mixed[0], M)
    assert mixed[1] == colscale
    assert np.array_equal(mixed[2], keys)


@pytest.mark.parametrize("case", ["slice", "one_column", "object"])
def test_grouped_and_per_leaf_placement_assemble_the_same_matrix(case, cache):
    # the fresh leaves of a group that feeds fewer columns than it has
    # leaves are multiplied as one combination of prefixes per column; with
    # every leaf memoized first, each is placed on its own: both give the
    # same (M, colscale, keys), on the slice y11 = 0, for one column (as
    # evaluate_abs takes it) and for weights of 2^70, where M holds objects
    from traceforge import glcat

    vectors = hwv_basis(Partition(6, 6)).vectors
    polys = {
        "slice": vectors[:3],
        "one_column": [vectors[0] - vectors[7].scale(Fraction(2, 7))],
        "object": [v.scale(1 << 70) for v in vectors[:3]],
    }[case]
    used = {m for v in polys for m in v.terms}

    def assemble(memoize):
        run = EvalCache(store=cache.store)
        target = run.y11_slice(glcat._gen_evals(run)) if case == "slice" else run
        if memoize:
            glcat.eval_abs_monomials(used, target)
        before = run.stats.gen_products
        return relfinder._assemble_matrix(polys, target), run, run.stats.gen_products - before

    (M, colscale, keys), grouped_run, grouped = assemble(False)
    (M1, colscale1, keys1), leaf_run, per_leaf = assemble(True)
    assert per_leaf == 0
    per_leaf = len({m[:n] for m in used for n in range(2, len(m) + 1)})
    assert grouped == expected_products([polys]) < per_leaf
    assert M.dtype == M1.dtype == (object if case == "object" else np.int64)
    assert M.shape[0] > 0 and np.array_equal(M, M1)
    assert colscale == colscale1 and np.array_equal(keys, keys1)
    if case == "one_column":
        report = relfinder.evaluate_abs(polys[0], grouped_run)
        assert not report.zero and report == relfinder.evaluate_abs(polys[0], leaf_run)


@pytest.mark.parametrize("kind", ["basis", "relations"])
def test_each_product_dies_once_it_is_placed(kind, cache, monkeypatch, s66):
    # the (6,6) basis feeds 30 columns and its relations 2, so the leaves of
    # its groups are multiplied one by one, or combined per column: either
    # way one product group is in flight at each placement of a product,
    # its table is the only SumTable alive, each leaf prefix held is needed
    # by this group or a later one, each product is placed once, and the
    # memo keeps no (6,6) monomial and no leaf prefix it lacked before
    from traceforge import glcat
    from traceforge.glcat import ProductGroup, mono_bidegree

    in_flight = [0]
    taken = [0]
    tables = [0]
    seen: list[tuple[int, int, int]] = []
    run = EvalCache(store=cache.store)
    products = ProductGroup.products

    def counted_products(grp, c, polys):
        in_flight[0] += 1
        try:
            for out in products(grp, c, polys):
                taken[0] += 1
                yield out
        finally:
            in_flight[0] -= 1

    class CountedTable(glcat.SumTable):
        __slots__ = ()

        def __init__(self, polys, factor):
            super().__init__(polys, factor)
            tables[0] += 1

        def __del__(self):
            tables[0] -= 1

    made = []
    leaf_groups = relfinder.leaf_groups

    def recorded_leaf_groups(monos, c):
        evals, groups = leaf_groups(monos, c)
        made.append(groups)
        return evals, groups

    current = []
    place_group = relfinder._place_group

    def recorded_place_group(cols, grp, c):
        current.append(grp.monos)
        place_group(cols, grp, c)

    add = relfinder._Columns.add

    def recorded_add(cols, uses, pos, e):
        groups = made[0]
        at = groups.leaves.index(current[-1])
        later = {m[:-1] for ms in groups.leaves[at:] for m in ms}
        assert set(groups.held) <= later
        assert all(m[:-1] in groups.held for m in current[-1] if m[:-1] in groups.needs)
        full = sum(mono_bidegree(k) == (6, 6) for k in run._abs_monos)
        seen.append((full, in_flight[0], tables[0]))
        add(cols, uses, pos, e)

    monkeypatch.setattr(ProductGroup, "products", counted_products)
    monkeypatch.setattr(glcat, "SumTable", CountedTable)
    monkeypatch.setattr(relfinder, "leaf_groups", recorded_leaf_groups)
    monkeypatch.setattr(relfinder, "_place_group", recorded_place_group)
    monkeypatch.setattr(relfinder._Columns, "add", recorded_add)
    polys = hwv_basis(Partition(6, 6)).vectors if kind == "basis" else s66.relvectors
    relfinder._assemble_matrix(polys, run)
    assert len(made) == 1 and len(current) == len(made[0].leaves) > 1
    assert {n for _, n, _ in seen} == {1} and {t for _, _, t in seen} == {1}
    assert tables[0] == 0 and not made[0].held and not made[0].needs
    # every product is counted once, and the memo keeps only the proper
    # prefixes of the leaf prefixes
    assert taken[0] == run.stats.gen_products == expected_products([polys])
    assert all(full == 0 for full, _, _ in seen)
    leaves = {m for v in polys for m in v.terms}
    lower = {m[:n] for m in leaves for n in range(2, len(m) - 1)}
    assert {k for k in run._abs_monos if len(k) > 1} == lower


def test_a_proof_makes_each_product_once_and_keeps_no_leaf_prefix(s66, cache):
    # the (6,6) proof on a fresh cache makes exactly the products that
    # expected_products counts, keeps the proper prefixes of its leaf
    # prefixes in the sliced memo, and a second proof on the same cache
    # makes the leaf prefixes and the leaves again, and nothing else
    run = EvalCache(store=cache.store)
    basis = hwv_basis(Partition(6, 6), cache=run)
    assert relfinder._proven(s66.zeta, basis, run) == s66.relvectors
    once = run.stats.gen_products
    assert once == expected_products([s66.relvectors])
    leaves = {m for v in s66.relvectors for m in v.terms}
    prefixes = {m[:-1] for m in leaves if len(m) > 2}
    lower = {p[:n] for p in prefixes for n in range(2, len(p))}
    memo = {k for k in run._y11_slice._abs_monos if len(k) > 1}
    assert memo == lower and not prefixes <= memo
    assert relfinder._proven(s66.zeta, basis, run) == s66.relvectors
    again = run.stats.gen_products - once
    assert again == expected_products([s66.relvectors] * 2) - once == once - len(lower)


def test_predicted_denominators_are_the_products_own(cache):
    # glcat.predicted_dens, from the contents and denominators of the
    # generators alone, gives the denominator of every monomial of the
    # seven paper weights, in full and on the slice y11 = 0
    from traceforge import glcat

    run = EvalCache(store=cache.store)
    dens = set()
    for target in (run, run.y11_slice(glcat._gen_evals(run))):
        gens = glcat._gen_evals(target)
        for lam in (lam for d in sorted(LAMBDAS_BY_DEGREE) for lam in LAMBDAS_BY_DEGREE[d]):
            monos = abs_monomials(lam)
            predicted = glcat.predicted_dens(monos, gens)
            evals, groups = glcat.leaf_groups(monos, target)
            got = {m: e.den for m, e in evals.items()}
            for grp in groups:
                for (_, e), m in zip(grp.products(run, grp.prefixes), grp.monos):
                    got[m] = e.den
            assert got == predicted, lam
            dens |= set(got.values())
    assert len(dens) > 1
    # a zero factor gives denominator 1
    zero = [PackedPoly.zero()] + glcat._gen_evals(run)[1:]
    assert glcat.predicted_dens([(0, 1), (1, 1)], zero)[(0, 1)] == 1


def _bundled(name: str) -> AbsPoly:
    return parse_phi((ir.files("traceforge") / "data" / name).read_text())


def _no_assembly(*args):
    raise AssertionError("a member of a held relation space was assembled")


def test_a_member_of_a_held_space_makes_no_product(cache, monkeypatch):
    # once relation_space((6,6)) has solved the space, the cache holds it,
    # and both (6,6) files, combinations of its relations, are zero by
    # linearity: nothing is assembled, and the reports are a fresh cache's
    candidates = [_bundled("v66prime.phi"), _bundled("v66second.phi")]
    want = [verify_zero_abs(p, EvalCache(store=cache.store)) for p in candidates]
    run = EvalCache(store=cache.store)
    relation_space(Partition(6, 6), cache=run, use_cache=False)
    before = run.stats.gen_products
    monkeypatch.setattr(relfinder, "leaf_groups", _no_assembly)
    assert [verify_zero_abs(p, run) for p in candidates] == want
    assert run.stats.gen_products == before
    assert all(rep.zero for rep in want)


def test_a_stored_space_answers_its_members_on_a_fresh_cache(s66, cache, monkeypatch):
    # a space read back from the store is held like a solved one: a fresh
    # cache reads it and then makes no product for a member
    run = EvalCache(store=cache.store)
    assert relation_space(Partition(6, 6), cache=run).from_cache
    monkeypatch.setattr(relfinder, "leaf_groups", _no_assembly)
    assert verify_zero_abs(_bundled("v66second.phi"), run).zero
    assert run.stats.gen_products == 0


def test_a_candidate_of_no_held_bidegree_is_assembled(s75, s66, cache):
    # an inhomogeneous candidate, a zero one and a nonzero one, and the
    # lowest orbit vector of the (7,5) relation, a zero of bidegree (5,7),
    # which is no weight, miss the held spaces: each is assembled, and its
    # report is a fresh cache's
    v66, v75 = _bundled("v66second.phi"), _bundled("v75.phi")
    m = abs_monomials(Partition(7, 5))[0]
    lowest = orbit(s75)[-1]
    assert lowest.bidegree() == (5, 7)
    candidates = [v66 + v75, v66 + AbsPoly.monomial(m), lowest]
    assert {(7, 5), (6, 6)} <= set(cache._spaces)
    made = cache.stats.gen_products
    got = [verify_zero_abs(p, cache) for p in candidates]
    assert cache.stats.gen_products > made
    assert got == [verify_zero_abs(p, EvalCache(store=cache.store)) for p in candidates]
    assert [rep.zero for rep in got] == [True, False, True]


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
    # a relation plus k times a monomial of its basis is no member of the
    # held (6,6) space, so it is assembled, and its report is a fresh one
    basis = hwv_basis(Partition(6, 6))
    m = next(m for v in basis.vectors for m in v.terms)
    assert not abs_delta(AbsPoly.monomial(m)).is_zero()  # not a highest weight vector
    bad = _bundled("v66second.phi") + AbsPoly.monomial(m).scale(k)
    want = verify_zero_abs(bad, EvalCache(store=cache.store))
    run = EvalCache(store=cache.store)
    relation_space(Partition(6, 6), cache=run)
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


def test_rows_grow_as_keys_arrive():
    # each key gets one row, appended as it first arrives; a key that
    # arrives again finds its row, and the matrix lists the nonzero rows in
    # ascending order of their keys (the keys of the last batch stay zero)
    rng = np.random.default_rng(5)
    batches = [np.unique(rng.integers(-50, 50, size=n)) for n in (0, 7, 1, 30, 0, 12, 9)]
    cols = relfinder._Columns(2, {}, {})
    row_of: dict[int, int] = {}
    want: dict[int, list[int]] = {}
    for t, keys in enumerate(batches):
        rows = cols.rows(keys)
        for k, r in zip(keys.tolist(), rows.tolist()):
            assert row_of.setdefault(k, len(row_of)) == r
        assert cols.M.shape == (len(row_of), 2)
        if t < len(batches) - 1:
            cols.M[rows, t % 2] += 1
            for k in keys.tolist():
                want.setdefault(k, [0, 0])[t % 2] += 1
    M, keys = cols.matrix()
    assert keys.tolist() == sorted(want) and M.tolist() == [want[k] for k in sorted(want)]
    assert set(row_of) > set(want)
    assert relfinder._Columns(1, {}, {}).matrix()[0].shape == (0, 1)


def _unit_vector_outside(space: RelationSpace, basis) -> tuple[Fraction, ...]:
    """The zeta of the first basis vector that is no member of the space."""
    i = next(i for i, v in enumerate(basis.vectors) if not membership(v, space))
    return tuple(Fraction(int(k == i)) for k in range(basis.s))


def test_the_slice_is_the_evaluation_at_y11_zero(s75, s66, cache):
    # every leaf of the degree-12 relation vectors, multiplied from the
    # sliced generators, is its full evaluation with y11 set to zero, and
    # the sliced products count in the stats of the cache
    from traceforge import glcat
    from traceforge.genmat import VARSET18
    from traceforge.packedpoly import unpack_keys

    run = EvalCache(store=cache.store)
    leaves = sorted({m for s in (s75, s66) for v in s.relvectors for m in v.terms})
    full = glcat.eval_abs_monomials(leaves, run)
    made = run.stats.gen_products
    part = run.y11_slice(glcat._gen_evals(run))
    assert run.y11_slice([]) is part
    sliced = glcat.eval_abs_monomials(leaves, part)
    assert run.stats.gen_products == 2 * made > 0
    y11 = VARSET18.index("y11")
    for f, g in zip(full, sliced):
        free = unpack_keys(f.keys)[:, y11] == 0
        assert g == PackedPoly.from_column(f.keys[free], f.coeffs[free], f.den)
    assert sum(g.nnz for g in sliced) < sum(f.nnz for f in full)
    # a basis vector outside the (7,5) space is no relation on the slice
    basis = hwv_basis(Partition(7, 5))
    assert relfinder._proven(s75.zeta, basis, run) == s75.relvectors
    assert relfinder._proven([_unit_vector_outside(s75, basis)], basis, run) is None


def test_threads_share_one_slice_and_make_each_product_once(s66, cache):
    # threads that ask for the slice at once get one slice, and a proof on
    # it makes each product of the relation vectors once
    import sys
    import threading

    from traceforge import glcat

    run = EvalCache(store=cache.store)
    gens = glcat._gen_evals(run)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: got.append(run.y11_slice(gens))) for _ in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8 and all(part is run._y11_slice for part in got)
    assert relfinder._proven(s66.zeta, hwv_basis(Partition(6, 6)), run) == s66.relvectors
    assert run.stats.gen_products == expected_products([s66.relvectors])


def test_every_product_of_a_proof_runs_on_the_calling_thread(cache, monkeypatch):
    # the (8,6) proof multiplies 8.08 M raw terms on the slice, the largest
    # of the seven weights; on a machine of any core count each of its
    # products runs on the thread that asked for the proof
    import os
    import threading

    from traceforge.packedpoly import SumTable

    lam = Partition(8, 6)
    space = relation_space(lam, cache=cache)
    basis = hwv_basis(lam, cache=cache)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    product = SumTable.product
    threads = []

    def recorded_product(table, p):
        threads.append(threading.get_ident())
        return product(table, p)

    monkeypatch.setattr(SumTable, "product", recorded_product)
    run = EvalCache(store=cache.store)
    proved = relfinder._proven(space.zeta, basis, run)
    assert threads and set(threads) == {threading.get_ident()}
    assert len(threads) == run.stats.gen_products
    assert proved == space.relvectors


def test_the_modular_mode_builds_and_checks_each_relation_vector_once(cache, monkeypatch):
    # _proven builds and checks the vectors it proves, and relation_space
    # keeps them rather than building and checking them again
    built, checked = [], []
    combine, check = relfinder._relation_vector, relfinder._check_highest_weight

    def recorded_combine(zeta, vectors):
        built.append(tuple(zeta))
        return combine(zeta, vectors)

    def recorded_check(lam, vectors):
        checked.append(tuple(vectors))
        check(lam, vectors)

    monkeypatch.setattr(relfinder, "_relation_vector", recorded_combine)
    monkeypatch.setattr(relfinder, "_check_highest_weight", recorded_check)
    space = relation_space(Partition(7, 5), cache=EvalCache(store=cache.store), use_cache=False)
    assert space.r > 0
    assert built == list(space.zeta)
    assert checked == [space.relvectors]


def test_a_combination_that_abs_delta_does_not_kill_is_refused(s75, cache, monkeypatch):
    # the slice decides only where abs_delta kills the combination: a
    # relation plus a monomial that abs_delta does not kill raises before
    # _proven makes a product
    from traceforge import glcat

    def no_products(*args):
        raise RuntimeError("_proven assembled a combination it must refuse")

    basis = hwv_basis(Partition(7, 5))
    m = next(m for m in basis.monomials if not abs_delta(AbsPoly.monomial(m)).is_zero())
    bad = basis._replace(vectors=(*basis.vectors, AbsPoly.monomial(m)))
    zeta = [(*s75.zeta[0], Fraction(1))]
    run = EvalCache(store=cache.store)
    monkeypatch.setattr(glcat, "leaf_groups", no_products)
    monkeypatch.setattr(relfinder, "leaf_groups", no_products)
    with pytest.raises(AssertionError, match=r"not a highest weight vector of bidegree \(7,5\)"):
        relfinder._proven(zeta, bad, run)
    assert run.stats.gen_products == 0 and run._y11_slice is None


def test_the_slice_and_the_full_evaluation_agree_at_every_weight(cache):
    # at all seven weights the relations are proven on the slice and are
    # zero in full, and the first basis vector outside the space is not
    # proven on the slice and is nonzero in full
    for lams in LAMBDAS_BY_DEGREE.values():
        for lam in lams:
            space = relation_space(lam, cache=cache)
            basis = hwv_basis(lam, cache=cache)
            outside = _unit_vector_outside(space, basis)
            assert relfinder._proven(space.zeta, basis, cache) == space.relvectors, lam
            assert relfinder._proven([outside], basis, cache) is None, lam
            M, _, _ = relfinder._assemble_matrix(space.relvectors, cache)
            assert M.shape[0] == 0, lam
            vector = relfinder._relation_vector(outside, basis.vectors)
            M, _, _ = relfinder._assemble_matrix([vector], cache)
            assert M.shape[0] > 0, lam


def test_relation_space_cache_round_trip(cache):
    first = relation_space(Partition(6, 6), cache=cache)
    again = relation_space(Partition(6, 6), cache=EvalCache(cache.store))
    assert again.from_cache
    assert again.zeta == first.zeta
    assert [v for v in again.relvectors] == [v for v in first.relvectors]


def test_a_held_space_is_returned_before_the_store_is_read(cache, monkeypatch):
    # the second call in one process reads no relspace entry and returns
    # the space the cache holds; use_cache=False still solves
    run = EvalCache(cache.store)
    first = relation_space(Partition(7, 5), cache=run)
    assert run.stats.spaces_solved + run.stats.spaces_loaded == 1
    read: list[str] = []
    get_json = run.store.get_json
    monkeypatch.setattr(run.store, "get_json", lambda key: read.append(key) or get_json(key))
    assert relation_space(Partition(7, 5), cache=run) is first
    assert not any(key.startswith("relspace:") for key in read)
    assert run.stats.spaces_solved + run.stats.spaces_loaded == 1
    solved = relation_space(Partition(7, 5), cache=run, use_cache=False)
    assert solved is not first and not solved.from_cache
    assert solved.zeta == first.zeta and run.stats.spaces_solved >= 1


def test_relation_space_summary_is_versioned(cache, s66):
    digest = relfinder.catalog_digest()
    summary = cache.store.get_json(f"relspace:v3:6,6:{digest}")
    assert set(summary) == {"lambda", "zeta", "relvectors"}
    assert cache.store.get_json(f"relspace:6,6:{digest}") is None


def _stored_terms(v: AbsPoly) -> list:
    return [[list(m), f"{c.numerator}/{c.denominator}"] for m, c in v.sorted_terms()]


def _unkilled(doc, v):
    # a monomial that abs_delta does not kill, added to the first vector
    m = next(
        m for m in abs_monomials(Partition(7, 5))
        if m not in v.terms and not abs_delta(AbsPoly.monomial(m)).is_zero()
    )
    doc["relvectors"][0] = _stored_terms(v + AbsPoly.monomial(m))


def _other_bidegree(doc, v):
    # abs_delta kills u1_0, so it kills the product too
    w = v * AbsPoly.gen(1, 0)
    assert abs_delta(w).is_zero()
    doc["relvectors"][0] = _stored_terms(w)


def _one_vector_fewer(doc, v):
    doc["relvectors"].pop()


def _gid_30(doc, v):
    doc["relvectors"][0][0][0][-1] = 30


def _unsorted(doc, v):
    mono = next(m for m, _ in doc["relvectors"][0] if m != m[::-1])
    mono.reverse()


def _no_relvectors(doc, v):
    del doc["relvectors"]


STORED_FAULTS = [_unkilled, _other_bidegree, _one_vector_fewer, _gid_30, _unsorted, _no_relvectors]


@pytest.mark.parametrize(
    "fault", [*STORED_FAULTS, None], ids=[f.__name__[1:] for f in STORED_FAULTS] + ["v2_left"]
)
def test_a_stored_space_that_fails_its_checks_is_solved_again(fault, cache):
    lam = Partition(7, 5)
    digest = relfinder.catalog_digest()
    key = f"relspace:v{RELSPACE_SCHEMA}:7,5:{digest}"
    fresh = relation_space(lam, cache=cache, use_cache=False)
    good = cache.store.get_json(key)
    if fault is None:
        # only an entry of the previous schema is left, and it is never read
        cache.store._path(key).unlink()
        cache.store.put_json(
            f"relspace:v2:7,5:{digest}",
            {"lambda": good["lambda"], "zeta": good["zeta"], "digest": "0" * 64},
        )
    else:
        doc = cache.store.get_json(key)  # a copy of good
        fault(doc, fresh.relvectors[0])
        cache.store.put_json(key, doc)
    writes = cache.store.stats.writes
    space = relation_space(lam, cache=EvalCache(cache.store))
    assert not space.from_cache
    assert space.zeta == fresh.zeta and space.relvectors == fresh.relvectors
    assert cache.store.stats.writes == writes + 1
    assert cache.store.get_json(key) == good
    assert relation_space(lam, cache=EvalCache(cache.store)).from_cache


def assert_stored_zeta_follow_the_basis_order(lam, cache):
    """The stored zeta combine the vectors of hwv_basis, in its order, into
    the stored relation vectors.  Loading does not check this, since it
    solves no basis."""
    relation_space(lam, cache=cache)
    space = relation_space(lam, cache=EvalCache(cache.store))
    assert space.from_cache
    vectors = hwv_basis(lam, cache=cache).vectors
    for z, v in zip(space.zeta, space.relvectors, strict=True):
        assert relfinder._relation_vector(z, vectors) == v, lam


@pytest.mark.parametrize("lam", LAMBDAS_BY_DEGREE[12], ids=lambda lam: f"{lam.l1},{lam.l2}")
def test_stored_zeta_follow_the_basis_order(lam, cache):
    assert_stored_zeta_follow_the_basis_order(lam, cache)


def test_stored_zeta_follow_the_basis_order_at_every_weight(cache):
    for lams in LAMBDAS_BY_DEGREE.values():
        for lam in lams:
            assert_stored_zeta_follow_the_basis_order(lam, cache)


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
    assert keys[0].startswith(f"relcert:v2:7,5:0:{s75.catalog_digest}:{RELSPACE_SCHEMA}:")
    assert cache.store.get_json(keys[0]) == doc
    # a stored certificate is not built or written again
    def build(*args):
        raise AssertionError("stored certificate built again")

    monkeypatch.setattr(relfinder, "build_certificate", build)
    writes = cache.store.stats.writes
    assert write_certificates(s75, cache.store) == keys
    assert cache.store.stats.writes == writes


def certificate_proofs(degrees, cache):
    """{(weight, index): does its trace_form evaluate to zero} for each stored
    certificate of the degrees.  parse_trace and verify_zero multiply word
    traces, and share no code with _assemble_matrix, so this proves each
    relation again, independently of how it was found."""
    proofs = {}
    for degree in degrees:
        for lam in LAMBDAS_BY_DEGREE[degree]:
            space = relation_space(lam, cache=cache)
            for i, key in enumerate(write_certificates(space, cache.store)):
                doc = cache.store.get_json(key)
                proofs[tuple(lam), i] = verify_zero(parse_trace(doc["trace_form"]), cache).zero
    return proofs


def test_degree12_certificates_prove_their_relations_again(cache):
    proofs = certificate_proofs([12], cache)
    assert len(proofs) == 3
    assert [cert for cert, zero in proofs.items() if not zero] == []


@pytest.mark.extended
def test_all_certificates_prove_their_relations_again(cache):
    proofs = certificate_proofs([12, 13, 14], cache)
    assert len(proofs) == 16
    assert [cert for cert, zero in proofs.items() if not zero] == []


def test_new_relations_rejects_unknown_degree(cache):
    with pytest.raises(ValueError):
        new_relations(11, cache=cache)
