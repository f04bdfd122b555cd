"""End-to-end gate: the frozen reference results, checked at tolerance zero.

One test per criterion, each stamping a PASS/FAIL line with its wall time
into the terminal summary.  Criteria 6, 7b and 8 cover the total degree 13
and 14 slices; like every criterion they run in the standard suite.  The
frozen zeta digests of the seven weights stand in for a second route to the
relation spaces.  Where a criterion carries a runtime budget the elapsed
time is asserted, not just reported.
"""

import hashlib
import importlib.resources as ir
import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from traceforge import relfinder
from traceforge.cache import CacheStore
from traceforge.genmat import EvalCache, _compute_word_packed, eval_trace_expr
from traceforge.glcat import (
    AbsPoly,
    Partition,
    abs_delta,
    catalog,
    hilbert_coeff,
    multiplicity,
    phi,
)
from traceforge.hwv import hwv_basis
from traceforge.nullspace import (
    PRIMES,
    _gram,
    _in_kernel,
    _rref_mod,
    modular_kernel,
    null_stream,
)
from traceforge.phiparse import format_phi, parse_phi
from traceforge.relfinder import (
    leading_analysis,
    membership,
    new_relations,
    orbit,
    relation_space,
    verify_zero_abs,
)
from traceforge.tracelang import (
    X,
    Y,
    delta,
    delta1,
    format_trace_expr,
    parse_trace,
    trace_of,
)
from trace_oracle import subst_h

LAMBDA_ORDER = ((7, 5), (6, 6), (8, 5), (7, 6), (9, 5), (8, 6), (7, 7))
M_TABLE = (36, 30, 67, 49, 96, 106, 28)
PQ_TABLE = ((155, 119), (185, 155), (203, 136), (252, 203), (284, 188), (390, 284), (418, 390))
R_TABLE = {(7, 5): 1, (6, 6): 2, (8, 5): 1, (7, 6): 2, (9, 5): 2, (8, 6): 6, (7, 7): 2}

LEADING_12 = {"u5_0*u8_0", "u5_0*u8_1", "u5_1*u8_0", "u5_1*u8_1", "u7_0^2"}
LEADING_13 = {
    "u5_0*u9_0",
    "u5_0*u9_1",
    "u5_0*u9_2",
    "u5_1*u9_0",
    "u5_1*u9_1",
    "u5_1*u9_2",
    "u5_0*u10_0",
    "u5_1*u10_0",
}
LEADING_14 = {
    "u5_0*u11_0",
    "u5_0*u11_1",
    "u5_0*u11_2",
    "u5_0*u11_3",
    "u5_1*u11_0",
    "u5_1*u11_1",
    "u5_1*u11_2",
    "u5_1*u11_3",
    "u7_0*u9_0",
    "u7_0*u9_1",
    "u7_0*u9_2",
    "u7_0*u10_0",
    "u8_0^2",
    "u8_0*u8_1",
    "u8_1^2",
}

# sha256 of the canonical text of each weight's zeta (see zeta_text),
# computed once from mode="exact" and from mode="modular", which agree.
# This is an independent copy of the answer: it is not edited to match
# the code.
ZETA_SHA256 = {
    (7, 5): "526ac76ab4a03e064ce4d6c09596dec359f667bccf6f804f1490c21acadaa93d",
    (6, 6): "e50fe2c1689e5c2b875b62f984d4f9b325360ece629f2c8a616621631c749aeb",
    (8, 5): "bf135573fc01f100ff7b5974c5fde7f668b14a7b5fbdb4aa9d5906d6d10a109a",
    (7, 6): "b306b886bd482f360468954f4f249d1ccad88a1601edd9db4cd6dbbb08fc5eab",
    (9, 5): "f716e099585a0df9a286c652a913b52cc516f7b9d97a6064254c79a45777a850",
    (8, 6): "f00e2c4ccf7dca2631f58dbfa071b60dbf37f98b70f1f553e40841d649bd46f4",
    (7, 7): "13af30976baa7c5186a54ac0c78a8b05a3b44cc3414ffc9fc3cf24e31c7249ac",
}

# sha256 of the trace forms format_trace_expr(phi(v)) of the 16 relation
# vectors, weights in LAMBDA_ORDER, joined by newlines.  An independent copy
# of the answer, like ZETA_SHA256.
RELATION_TRACE_FORMS_SHA256 = (
    "03af5c6d68a2ba8721ab827b27e68aa9a1dc199f22e89e69774e7c43e0f6892b"
)

_SPACES = {}


@contextmanager
def criterion(label: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException as exc:
        dt = time.monotonic() - t0
        msg = str(exc).splitlines()[0][:110] if str(exc) else type(exc).__name__
        conftest.ACCEPTANCE_LINES.append(f"{label}: FAIL ({dt:.1f}s) {msg}")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        conftest.ACCEPTANCE_LINES.append(
            f"{label}: FAIL over budget ({dt:.1f}s >= {budget:.0f}s)"
        )
        raise AssertionError(f"{label} exceeded its runtime budget: {dt:.1f}s")
    conftest.ACCEPTANCE_LINES.append(f"{label}: PASS ({dt:.1f}s)")


@pytest.fixture(scope="module")
def acache(tmp_path_factory):
    store = CacheStore(tmp_path_factory.mktemp("acceptance") / "store")
    return EvalCache(store=store)


def get_space(lam, acache, fresh=False):
    key = tuple(lam)
    if not fresh and key in _SPACES:
        return _SPACES[key]
    solved = acache.stats.spaces_solved
    space = relation_space(Partition.of(*lam), cache=acache)
    if fresh:
        # a fresh space is solved here, not held or read back from the store
        assert acache.stats.spaces_solved == solved + 1, lam
    _SPACES[key] = space
    return space


def test_c1_multiplicity_table():
    with criterion("criterion 1 (multiplicities, 7 weights)", budget=10.0):
        got = tuple(multiplicity(Partition.of(*lam)) for lam in LAMBDA_ORDER)
        assert got == M_TABLE


def test_c2_product_counts():
    with criterion("criterion 2 (P and Q counts, 7 weights)", budget=10.0):
        for lam, (P, Q) in zip(LAMBDA_ORDER, PQ_TABLE):
            part = Partition.of(*lam)
            assert hilbert_coeff(part) == P
            assert hilbert_coeff(Partition(part.l1 + 1, part.l2 - 1)) == Q


def test_c3_hwv_systems():
    with criterion("criterion 3 (hwv bases, 7 weights)", budget=300.0):
        for lam, m, (P, Q) in zip(LAMBDA_ORDER, M_TABLE, PQ_TABLE):
            basis = hwv_basis(Partition.of(*lam))
            assert basis.s == m
            assert basis.alpha_rank == Q
            assert basis.P == P and basis.Q == Q
            for v in basis.vectors:
                assert abs_delta(v).is_zero()


def test_c4_degree12_relations(acache):
    with criterion("criterion 4 (degree-12 relation spaces)", budget=900.0):
        s75 = get_space((7, 5), acache, fresh=True)
        s66 = get_space((6, 6), acache, fresh=True)
        assert s75.r == 1
        assert s66.r == 2
        assert len(orbit(s75)) + len(orbit(s66)) == 5


def test_c5_explicit_relations(acache):
    with criterion("criterion 5 (bundled explicit relations)", budget=300.0):
        data = ir.files("traceforge") / "data"
        prime = parse_phi((data / "v66prime.phi").read_text())
        second = parse_phi((data / "v66second.phi").read_text())
        p75 = parse_phi((data / "v75.phi").read_text())

        # evaluated on a cache that holds no relation space, so the
        # transcriptions are assembled, not answered by membership
        fresh = EvalCache(store=acache.store)
        rep = verify_zero_abs(prime, fresh)
        assert rep.zero and rep.residual_terms == 0

        s75 = get_space((7, 5), acache)
        s66 = get_space((6, 6), acache)
        assert membership(p75, s75)
        assert membership(second, s66)
        assert membership(prime, s66)

        # the transcriptions also evaluate to the exact zero polynomial
        assert verify_zero_abs(p75, fresh).zero
        assert verify_zero_abs(second, fresh).zero
        assert fresh.stats.gen_products > 0

        # a perturbed candidate must come back as a structured report
        bad = p75 + AbsPoly.monomial(hwv_basis(Partition(7, 5)).monomials[0])
        rep_bad = verify_zero_abs(bad, acache)
        assert not rep_bad.zero
        assert rep_bad.residual_terms > 0
        assert 0 < len(rep_bad.residual_sample) <= 10
        assert all(len(t) == 2 for t in rep_bad.residual_sample)
        assert rep_bad.digest


def test_c6_degree13_14_relations(acache):
    with criterion("criterion 6 (degree-13/14 relation spaces)", budget=14400.0):
        for lam in ((8, 5), (7, 6), (9, 5), (8, 6), (7, 7)):
            space = get_space(lam, acache, fresh=True)
            assert space.r == R_TABLE[lam], f"r{lam} = {space.r}"


def test_trace_forms_of_the_relations_match_the_frozen_digest(acache):
    forms = [
        format_trace_expr(phi(v))
        for lam in LAMBDA_ORDER
        for v in get_space(lam, acache).relvectors
    ]
    assert len(forms) == sum(R_TABLE.values()) == 16
    digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
    assert digest == RELATION_TRACE_FORMS_SHA256


def zeta_text(space) -> str:
    """The canonical text of a space's zeta: its rows joined by "|", each
    row's coordinates as "numerator/denominator" joined by ","."""
    return "|".join(
        ",".join(f"{x.numerator}/{x.denominator}" for x in z) for z in space.zeta
    )


def test_modular_zeta_match_the_frozen_digests():
    fresh = EvalCache()
    for lam in LAMBDA_ORDER:
        space = relation_space(Partition(*lam), mode="modular", cache=fresh)
        digest = hashlib.sha256(zeta_text(space).encode()).hexdigest()
        assert digest == ZETA_SHA256[lam], lam


def test_each_weight_is_solved_at_one_prime(monkeypatch):
    # on a cache with no store, each of the seven weights echelons its values
    # at the first prime only, and the zeta of that one prime are the frozen
    # ones
    calls = []

    def counting(E, p):
        calls.append(p)
        return _rref_mod(E, p)

    monkeypatch.setattr(relfinder, "_rref_mod", counting)
    fresh = EvalCache()
    for lam in LAMBDA_ORDER:
        calls.clear()
        space = relation_space(Partition(*lam), cache=fresh)
        assert calls == [PRIMES[0]], lam
        digest = hashlib.sha256(zeta_text(space).encode()).hexdigest()
        assert digest == ZETA_SHA256[lam], lam


def test_c7a_leading_monomials_degree12(acache):
    with criterion("criterion 7a (leading monomials, degree 12)"):
        rep = leading_analysis([get_space((7, 5), acache), get_space((6, 6), acache)])
        assert set(rep.names) == LEADING_12
        assert len(rep.entries) == 5
        assert rep.absorbed == ()


def test_c7b_leading_monomials_degree13_14(acache):
    with criterion("criterion 7b (leading monomials, degrees 13 and 14)"):
        rep13 = leading_analysis(
            [get_space((8, 5), acache), get_space((7, 6), acache)]
        )
        assert set(rep13.names) == LEADING_13
        assert len(rep13.entries) == 8
        assert rep13.absorbed == ()

        rep14 = leading_analysis(
            [
                get_space((9, 5), acache),
                get_space((8, 6), acache),
                get_space((7, 7), acache),
            ]
        )
        assert set(rep14.names) == LEADING_14
        assert len(rep14.entries) == 15
        assert len(rep14.absorbed) == 15  # 30 orbit vectors in all


def test_c8_new_relation_accounting(acache):
    with criterion("criterion 8 (old versus new at degree 14)"):
        rep = new_relations(14, cache=acache)
        by_lam = {tuple(it.lam): it for it in rep.items}
        assert by_lam[(9, 5)].old == 1 and by_lam[(9, 5)].new == 1
        assert by_lam[(8, 6)].old == 3 and by_lam[(8, 6)].new == 3
        assert by_lam[(7, 7)].old == 1 and by_lam[(7, 7)].new == 1
        assert rep.decomposition == "W(9,5) + 3*W(8,6) + W(7,7)"


def _c9_leibniz(acache):
    exprs = [
        trace_of(X * Y),
        trace_of(X * X * Y),
        trace_of(Y * Y) - trace_of(X * Y),
    ]
    for e1, e2 in itertools.product(exprs, repeat=2):
        assert delta(e1 * e2) == delta(e1) * e2 + e1 * delta(e2)
        assert delta1(e1 * e2) == delta1(e1) * e2 + e1 * delta1(e2)


def _c9_cyclic(acache):
    # the literal products, with no cyclic canonicalization.  A word equal to
    # its rotation would compare a trace with itself; yyyyyyyy, the one word
    # here beyond the packed capacity, is one of them, and test_genmat.py
    # covers the route beyond the capacity
    for n in range(2, 9):
        for bits in itertools.product("xy", repeat=n):
            w = "".join(bits)
            rotated = w[1:] + w[0]
            if rotated != w:
                assert _compute_word_packed(w) == _compute_word_packed(rotated)


def _c9_ladder(acache):
    for mod in catalog(acache):
        a = mod.a
        basis = mod.basis
        for j, e in enumerate(basis):
            up = eval_trace_expr(delta(e), acache)
            want_up = (
                eval_trace_expr(basis[j - 1], acache).scale(j)
                if j > 0
                else up.scale(0)
            )
            assert up == want_up
            down = eval_trace_expr(delta1(e), acache)
            want_down = (
                eval_trace_expr(basis[j + 1], acache).scale(a - j)
                if j < a
                else down.scale(0)
            )
            assert down == want_down


def _c9_hwv_checks(acache):
    for mod in catalog(acache):
        e0 = mod.hwv
        ev = eval_trace_expr(e0, acache)
        assert not ev.is_zero()
        assert eval_trace_expr(delta(e0), acache).is_zero()
        assert eval_trace_expr(subst_h(e0), acache) == ev


def _c9_blocks_equal_one_matrix(acache):
    for lam in LAMBDA_ORDER:
        lam = Partition(*lam)
        rank, _, vectors = conftest.one_matrix_kernel(lam)
        basis = hwv_basis(lam)
        assert basis.alpha_rank == rank and basis.vectors == vectors


def _c9_modular_exact(acache):
    # the rows (3/2, 0, -5, 0), (0, 1, 7/3, 1), (3, 0, -10, 0), each
    # cleared by its denominator (row scaling keeps the kernel)
    B = np.array([[3, 0, -10, 0], [0, 3, 7, 3], [3, 0, -10, 0]], dtype=np.int64)
    G = _gram(B)
    exact = null_stream(B)
    modular = modular_kernel(
        lambda p: _rref_mod(G % p, p), 4, lambda vectors: _in_kernel(G, vectors)
    )
    assert set(exact.vectors) == set(modular.vectors)


def _c9_phi_round_trips(acache):
    data = ir.files("traceforge") / "data"
    for name in ("v75.phi", "v66prime.phi", "v66second.phi"):
        p = parse_phi((data / name).read_text())
        assert parse_phi(format_phi(p)) == p
    for mod in catalog(acache):
        assert parse_trace(format_trace_expr(mod.hwv)) == mod.hwv


def test_c9_property_suites(acache):
    suites = (
        _c9_leibniz,
        _c9_cyclic,
        _c9_ladder,
        _c9_hwv_checks,
        _c9_blocks_equal_one_matrix,
        _c9_modular_exact,
        _c9_phi_round_trips,
    )
    with criterion(f"criterion 9 ({len(suites)} property suites)"):
        for suite in suites:
            suite(acache)
