import os

import pytest

from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.glcat import AbsPoly, Partition, abs_delta, abs_monomials

from kernel_oracle import QMatrix, null_dense

EXTENDED = os.environ.get("TRACEFORGE_EXTENDED") == "1"

# filled by the acceptance module, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_collection_modifyitems(config, items):
    if EXTENDED:
        return
    skip = pytest.mark.skip(
        reason="extended suite disabled; set TRACEFORGE_EXTENDED=1 to enable"
    )
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def session_store(tmp_path_factory):
    return CacheStore(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="session")
def session_cache(session_store):
    return genmat.EvalCache(session_store)


def one_matrix_kernel(lam: Partition) -> tuple[int, int, tuple[AbsPoly, ...]]:
    """(rank, Q, kernel vectors) of the raising map on the whole bidegree-lam
    slice, solved as one matrix with one row per monomial of the target
    slice: the independent oracle for hwv_basis."""
    p_mons = abs_monomials(lam)
    q_mons = abs_monomials(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 else []
    q_index = {m: i for i, m in enumerate(q_mons)}
    rows = [{} for _ in q_mons]
    for c, mono in enumerate(p_mons):
        for m2, coeff in abs_delta(AbsPoly.monomial(mono)).terms.items():
            rows[q_index[m2]][c] = coeff
    nb = null_dense(QMatrix(tuple(rows), len(p_mons)))
    vectors = tuple(
        AbsPoly({m: c for m, c in zip(p_mons, v) if c}) for v in nb.vectors
    )
    return nb.rank, len(q_mons), vectors


def expected_products(calls, memoized=()) -> int:
    """The generator-monomial products of assembling each list of polys in
    calls in turn (see relfinder._assemble_matrix), on one cache that
    evaluated the monomials memoized first and nothing else.  The memo
    keeps every memoized monomial and its prefixes, and, of each call, the
    monomials it does not multiply as fresh leaves, their prefixes and the
    proper prefixes of the leaf prefixes (the m[:-1] of the fresh leaves m),
    each made once.  A leaf prefix that the memo lacks is made once per
    call and not kept.  For the fresh leaves of a call that end in one
    generator, there is one product per leaf or one per column they feed,
    whichever is fewer."""
    memo = {m[:n] for m in memoized for n in range(2, len(m) + 1)}
    made = len(memo)
    for polys in calls:
        columns: dict = {}
        for i, v in enumerate(polys):
            for m in v.terms:
                columns.setdefault(m, set()).add(i)
        candidates = [m for m in columns if len(m) > 1 and m not in memo]
        inner = {m[:n] for m in candidates for n in range(2, len(m))}
        fresh = [m for m in candidates if m not in inner]
        kept = {m[:n] for m in columns if m not in fresh for n in range(2, len(m) + 1)}
        prefixes = {m[:-1] for m in fresh if len(m) > 2}
        kept |= {p[:n] for p in prefixes for n in range(2, len(p))}
        made += len(kept - memo) + len(prefixes - memo - kept)
        memo |= kept
        by_last: dict = {}
        for m in fresh:
            by_last.setdefault(m[-1], []).append(columns[m])
        made += sum(min(len(g), len(set().union(*g))) for g in by_last.values())
    return made
