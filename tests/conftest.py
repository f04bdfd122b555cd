import os

import pytest

from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.glcat import AbsPoly, Partition, abs_delta, abs_monomials
from traceforge.nullspace import QMatrix, null_dense

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
