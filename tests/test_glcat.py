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
    schur,
)
from traceforge.tracelang import NotHomogeneous, bidegree
from traceforge.genmat import EvalCache, eval_trace_expr
from traceforge.polyring import BiSeries, series_inv_geom, series_mul

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
    mods = catalog()
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
    assert got == want
    assert all(type(c) is Fraction for c in got.coeffs.values())


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
    d1 = catalog_digest()
    d2 = catalog_digest()
    assert d1 == d2
    assert len(d1) == 64


def test_catalog_json_round():
    doc = catalog_json()
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


def test_schur_character():
    s = schur(Partition(7, 5), 14)
    for j in range(3):
        assert s.coeff(7 - j, 5 + j) == 1
    assert s.coeff(8, 4) == 0


def test_phi_respects_bidegree(session_cache):
    p = AbsPoly.gen(5, 0) * AbsPoly.gen(4, 0)
    e = phi(p, session_cache)
    ev = eval_trace_expr(e, session_cache)
    assert not ev.is_zero()
    assert bidegree(e) == (3 + 2, 2 + 2)


# a fresh process whose first catalog use is phi, phi_monomial or
# catalog_json, on a cache dir that holds the catalog verdict
PHI_PROBE = """
import json, sys
from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.glcat import AbsPoly, catalog_json, phi, phi_monomial

cache = genmat.EvalCache(CacheStore(sys.argv[2]))
call = sys.argv[1]
if call == "phi":
    phi(AbsPoly.gen(5, 0), cache)
elif call == "phi_monomial":
    phi_monomial((0, 1), cache)
else:
    catalog_json(cache)
print(json.dumps({
    "default": genmat.default_cache().stats.word_evals,
    "cache": cache.stats.word_evals,
}))
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
        assert json.loads(proc.stdout) == {"default": 0, "cache": 0}, call


def test_threaded_products_equal_the_serial_chain(session_store, monkeypatch):
    import os
    import sys
    import threading

    from traceforge import glcat
    from traceforge.hwv import hwv_basis
    from traceforge.packedpoly import PackedPoly

    # four workers on any machine, and every level on the pool
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(glcat, "_PARALLEL_TERMS", 0)
    mul = PackedPoly.mul
    threads = set()

    def recorded_mul(a, b):
        threads.add(threading.get_ident())
        return mul(a, b)

    monkeypatch.setattr(PackedPoly, "mul", recorded_mul)
    monos = list(dict.fromkeys(
        m for v in hwv_basis(Partition(6, 6)).vectors for m in v.terms
    ))
    prefixes = {m[:n] for m in monos for n in range(2, len(m) + 1)}
    cache = EvalCache(session_store)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = glcat.eval_abs_monomials(monos, cache)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1
    # a lost update of the counter or the memo would show here
    assert cache.stats.gen_products == len(prefixes)
    assert set(cache._abs_monos) == prefixes | {m[:1] for m in monos}
    gens = glcat._gen_evals(cache)
    for m, p in zip(monos, got):
        want = gens[m[0]]
        for g in m[1:]:
            want = mul(want, gens[g])
        assert p.to_bytes() == want.to_bytes(), m
    again = glcat.eval_abs_monomials(monos, cache)
    assert cache.stats.gen_products == len(prefixes)
    assert all(a is b for a, b in zip(again, got))
