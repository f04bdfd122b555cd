"""Generator catalog, bigraded Hilbert series, abstract polynomial layer."""

from fractions import Fraction

import pytest

from traceforge.glcat import (
    ABS_GENS,
    NGENS,
    AbsPoly,
    Partition,
    abs_delta,
    abs_delta1,
    abs_monomials,
    abs_poly_text,
    catalog,
    catalog_digest,
    catalog_json,
    gen_by_modj,
    generator_degree_audit,
    hilbert_KG0,
    hilbert_coeff,
    mono_bidegree,
    multiplicity,
    phi,
)
from traceforge.tracelang import NotHomogeneous, bidegree
from traceforge.genmat import EvalCache, eval_trace_expr
from series_oracle import BiSeries, series_inv_geom, series_mul

EXPECTED_PARTS = [
    (2, 0),
    (3, 0),
    (4, 0),
    (2, 2),
    (3, 2),
    (4, 2),
    (3, 3),
    (4, 3),
    (5, 3),
    (4, 4),
    (6, 3),
    (5, 5),
]

# (l1, l2) -> (P, Q, m) for the seven weights under study
HILBERT_TABLE = {
    (7, 5): (155, 119, 36),
    (6, 6): (185, 155, 30),
    (8, 5): (203, 136, 67),
    (7, 6): (252, 203, 49),
    (9, 5): (284, 188, 96),
    (8, 6): (390, 284, 106),
    (7, 7): (418, 390, 28),
}


def test_catalog_shape():
    mods = catalog(EvalCache())
    assert [tuple(m.partition) for m in mods] == EXPECTED_PARTS
    assert [m.dimension for m in mods] == [3, 4, 5, 1, 2, 3, 1, 2, 3, 1, 4, 1]
    assert sum(m.dimension for m in mods) == 30 == NGENS


def test_absgen_bidegrees_and_names():
    for g in ABS_GENS:
        a = EXPECTED_PARTS[g.module - 1][0] - EXPECTED_PARTS[g.module - 1][1]
        b = EXPECTED_PARTS[g.module - 1][1]
        assert 0 <= g.j <= a
        assert g.bidegree == (a + b - g.j, b + g.j)
        assert g.name == f"u{g.module}_{g.j}"
    # gid lookup is the inverse of (module, j)
    for g in ABS_GENS:
        assert gen_by_modj(g.module, g.j) is g


def test_hilbert_table_frozen():
    for lam, (P, Q, m) in HILBERT_TABLE.items():
        part = Partition.of(*lam)
        assert hilbert_coeff(part) == P
        assert hilbert_coeff(Partition(part.l1 + 1, part.l2 - 1)) == Q
        assert multiplicity(part) == m == P - Q


@pytest.mark.parametrize("D", [14, 16])
def test_hilbert_series_matches_the_series_product(D):
    # oracle: the product of the truncated geometric series 1/(1 - t^p u^q)
    # over the generators, in Fraction arithmetic
    want = BiSeries.one(D)
    for g in ABS_GENS:
        want = series_mul(want, series_inv_geom(g.bidegree[0], g.bidegree[1], D))
    got = hilbert_KG0(D)
    # every entry of the integer table, zeros included, is the oracle's
    assert len(got) == D + 1
    for p, row in enumerate(got):
        assert len(row) == D + 1 - p
        for q, c in enumerate(row):
            assert type(c) is int
            assert c == want.coeff(p, q), (p, q)
    # hilbert_coeff reads the table at every two-row weight of degree <= D,
    # the degree 15-16 weights included
    for total in range(D + 1):
        for l2 in range(total // 2 + 1):
            lam = Partition(total - l2, l2)
            assert hilbert_coeff(lam) == want.coeff(lam.l1, lam.l2), lam


def test_abs_monomials_counts():
    for lam, (P, _, _) in HILBERT_TABLE.items():
        monos = abs_monomials(Partition.of(*lam))
        assert len(monos) == P
        assert all(mono_bidegree(m) == lam for m in monos)


def test_abs_monomials_small():
    # bidegree (2, 0): only u1_0
    monos = abs_monomials(Partition(2, 0))
    assert monos == [(gen_by_modj(1, 0).gid,)]
    # bidegree (4, 0): u3_0 and u1_0^2
    monos4 = abs_monomials(Partition(4, 0))
    assert len(monos4) == 2


def _unpruned_walk(p: int, q: int) -> list[tuple[int, ...]]:
    """Every generator monomial of bidegree (p, q), by the depth-first walk
    over the generators that tries every branch."""
    from traceforge.glcat import ABS_GENS

    out = []

    def recurse(gid, p, q, acc):
        if p == 0 and q == 0:
            out.append(tuple(acc))
            return
        if gid >= len(ABS_GENS):
            return
        gp, gq = ABS_GENS[gid].bidegree
        recurse(gid + 1, p, q, acc)
        if gp <= p and gq <= q:
            recurse(gid, p - gp, q - gq, acc + [gid])

    recurse(0, p, q, [])
    return out


def test_the_pruned_walk_gives_the_same_monomials_in_the_same_order():
    # every bidegree up to (10, 7), and two beyond the table of bidegrees up
    # to (15, 15), which get tables of their own
    from traceforge import glcat

    for p in range(11):
        for q in range(8):
            assert glcat.bidegree_monomials(p, q) == _unpruned_walk(p, q), (p, q)
    assert glcat.bidegree_monomials(16, 3) == _unpruned_walk(16, 3)
    assert glcat.bidegree_monomials(3, 17) == _unpruned_walk(3, 17)


def test_degree_audit():
    assert generator_degree_audit() == {
        1: 2,
        2: 3,
        3: 4,
        4: 6,
        5: 2,
        6: 4,
        7: 2,
        8: 4,
        9: 4,
        10: 1,
    }


def test_catalog_digest_stable():
    # an independent copy of the digest of the catalog's definition
    assert catalog_digest() == (
        "9c62cfcaeef26ca11a78422c815e39d9ed8243e0167e081cf139de04e00159d5"
    )


def test_a_wrong_evaluated_raising_map_fails_certification(monkeypatch):
    # D without its x33 d/dy33 term: the trace-route raising check never
    # calls eval_delta, so only the evaluated raising check can catch it
    from traceforge import genmat
    from traceforge.glcat import CatalogCertificationError, _build_modules, _certify
    from traceforge.packedpoly import derivation

    _certify(_build_modules(), EvalCache())
    monkeypatch.setattr(
        genmat, "eval_delta", lambda p: derivation(p, genmat._RAISE_PAIRS[:2])
    )
    with pytest.raises(
        CatalogCertificationError, match=r"^module 1: evaluated raising fails at j=1$"
    ):
        _certify(_build_modules(), EvalCache())


def test_scaled_word_traces_fail_certification():
    # every cached word trace times a random nonzero rational of its own:
    # the evaluated checks must see it
    import random

    from traceforge.glcat import CatalogCertificationError, _build_modules, _certify

    cache = EvalCache()
    _certify(_build_modules(), cache)
    rng = random.Random(36)
    for w, poly in cache._words.items():
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50))
        cache._words[w] = poly.scale(c)
    with pytest.raises(CatalogCertificationError):
        _certify(_build_modules(), cache)


def test_a_store_is_certified_on_its_own_word_traces(tmp_path):
    # a clean cache certifies first, in this process; then a store that
    # holds every catalog word trace, tr(xx) times 3, and no verdict: the
    # catalog is certified on that store's traces, fails, and writes nothing
    from traceforge.cache import CacheStore
    from traceforge.glcat import CatalogCertificationError

    clean = EvalCache()
    catalog(clean)
    assert len(clean._words) == 73 and "xx" in clean._words
    store = CacheStore(tmp_path / "s")
    for w, poly in clean._words.items():
        store.put_poly(f"wordtrace:{w}", poly.scale(3) if w == "xx" else poly)
    writes = store.stats.writes
    cache = EvalCache(store)
    with pytest.raises(CatalogCertificationError):
        catalog(cache)
    assert cache.stats.word_evals == 0 and cache.stats.disk_hits == 73
    assert store.stats.writes == writes
    assert not store._path(f"catalog-cert:{catalog_digest()}").exists()


def test_a_wrong_ladder_constant_fails_before_any_evaluation():
    # e_1 of module 1 scaled by 2: delta(e_1) = 2 e_0 as trace expressions
    from traceforge.glcat import CatalogCertificationError, _build_modules, _certify

    mods = list(_build_modules())
    basis = mods[0].basis
    mods[0] = mods[0]._replace(basis=(basis[0], basis[1].scale(2), *basis[2:]))
    cache = EvalCache()
    with pytest.raises(
        CatalogCertificationError, match=r"^module 1: raising constant fails at j=1$"
    ):
        _certify(tuple(mods), cache)
    assert cache.stats.word_evals == 0 and not cache._words


def test_certification_evaluates_only_the_30_generators(monkeypatch):
    from traceforge import genmat
    from traceforge.glcat import _build_modules, _certify

    evaluated = []
    evaluate = genmat.eval_trace_expr_packed

    def counted(e, cache=None):
        evaluated.append(e)
        return evaluate(e, cache)

    monkeypatch.setattr(genmat, "eval_trace_expr_packed", counted)
    mods = _build_modules()
    _certify(mods, EvalCache())
    assert evaluated == [e for m in mods for e in m.basis] and len(evaluated) == 30


def test_catalog_json_round():
    doc = catalog_json(EvalCache())
    assert len(doc["modules"]) == 12
    assert len(doc["generators"]) == 30
    assert doc["degree_audit"] == {str(k): v for k, v in generator_degree_audit().items()}


def test_abs_poly_ring_ops():
    u = AbsPoly.gen(5, 0)
    v = AbsPoly.gen(5, 1)
    p = (u + v) * (u - v)
    q = u * u - v * v
    assert p == q
    assert (u * v).bidegree() == (5, 5)
    with pytest.raises(NotHomogeneous):
        (u + u * v).bidegree()
    assert abs_poly_text(AbsPoly.zero()) == "0"


def test_delta_leibniz_and_sl2():
    u = AbsPoly.gen(6, 0)  # module (4,2): a = 2
    v = AbsPoly.gen(9, 1)  # module (5,3): a = 2
    p = u * v
    lhs = abs_delta(p)
    rhs = abs_delta(u) * v + u * abs_delta(v)
    assert lhs == rhs
    lhs1 = abs_delta1(p)
    rhs1 = abs_delta1(u) * v + u * abs_delta1(v)
    assert lhs1 == rhs1
    # [delta, delta1] acts by the weight a - 2j on u_{i,j}
    for g in ABS_GENS:
        x = AbsPoly.gen(g.module, g.j)
        comm = abs_delta(abs_delta1(x)) - abs_delta1(abs_delta(x))
        a = EXPECTED_PARTS[g.module - 1][0] - EXPECTED_PARTS[g.module - 1][1]
        assert comm == x.scale(Fraction(a - 2 * g.j))


def test_delta_kills_top_and_bottom():
    for g in ABS_GENS:
        a = EXPECTED_PARTS[g.module - 1][0] - EXPECTED_PARTS[g.module - 1][1]
        x = AbsPoly.gen(g.module, g.j)
        if g.j == 0:
            assert abs_delta(x).is_zero()
        if g.j == a:
            assert abs_delta1(x).is_zero()


def test_phi_respects_bidegree(session_cache):
    p = AbsPoly.gen(5, 0) * AbsPoly.gen(4, 0)
    e = phi(p)
    ev = eval_trace_expr(e, session_cache)
    assert not ev.is_zero()
    assert bidegree(e) == (3 + 2, 2 + 2)


# a fresh process whose first catalog use is phi, phi_monomial or
# catalog_json, with a cache over a dir that holds the catalog verdict
PHI_PROBE = """
import json, sys
from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.glcat import AbsPoly, catalog_json, phi, phi_monomial

cache = genmat.EvalCache(CacheStore(sys.argv[2]))
call = sys.argv[1]
if call == "phi":
    phi(AbsPoly.gen(5, 0))
elif call == "phi_monomial":
    phi_monomial((0, 1))
else:
    catalog_json(cache)
print(json.dumps({"cache": cache.stats.word_evals}))
"""


def test_phi_reads_the_catalog_verdict_of_its_cache(tmp_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from traceforge import catalog
    from traceforge.cache import CacheStore

    store_dir = tmp_path / "c"
    catalog(EvalCache(CacheStore(store_dir)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for call in ("phi", "phi_monomial", "catalog_json"):
        proc = subprocess.run(
            [sys.executable, "-c", PHI_PROBE, call, str(store_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"cache": 0}, call


def test_callers_sharing_a_cache_lose_no_update(session_store, monkeypatch):
    # library callers may share one EvalCache across their own threads: the
    # cache's lock keeps every count of a product, and each caller's
    # products, made in its own call, are the chain products
    import sys
    import threading

    from traceforge import glcat
    from traceforge.hwv import hwv_basis
    from traceforge.packedpoly import PackedPoly, SumTable

    product = SumTable.product
    calls = []

    # every generator-monomial product is one SumTable.product call
    def recorded_product(table, p):
        calls.append(threading.get_ident())
        return product(table, p)

    monkeypatch.setattr(SumTable, "product", recorded_product)
    monos = list(dict.fromkeys(
        m for v in hwv_basis(Partition(6, 6)).vectors for m in v.terms
    ))
    cache = EvalCache(session_store)
    gens = glcat._gen_evals(cache)
    # four callers, each sharing half of its monomials with every other
    half = len(monos) // 2
    parts = [monos[:half] + monos[half + k :: 4] for k in range(4)]
    got: dict[int, list[PackedPoly]] = {}
    workers = [
        threading.Thread(
            target=lambda k=k: got.__setitem__(k, glcat.eval_abs_monomials(parts[k], gens, cache))
        )
        for k in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=300)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == list(range(4)) and len(set(calls)) > 1
    # a lost update of the counter would show here: each caller makes every
    # prefix of its own monomials once, and each product counts
    made = sum(len({m[:n] for m in part for n in range(2, len(m) + 1)}) for part in parts)
    assert cache.stats.gen_products == len(calls) == made
    for k, part in enumerate(parts):
        for m, p in zip(part, got[k]):
            want = gens[m[0]]
            for g in m[1:]:
                want = PackedPoly.mul(want, gens[g])
            assert p.to_bytes() == want.to_bytes(), m
