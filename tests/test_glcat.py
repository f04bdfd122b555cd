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
    e = phi(p)
    ev = eval_trace_expr(e, session_cache)
    assert not ev.is_zero()
    assert bidegree(e) == (3 + 2, 2 + 2)
