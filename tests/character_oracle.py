"""The relation count r = m - c0 from characters of the symmetric group.

An independent copy of the count that relfinder proves its relation spaces
with: it imports nothing from traceforge, and takes another route to every
number.

- m(lam), the multiplicity of W(lam) in the polynomial algebra on the
  generators, comes from the Hilbert series of that algebra, built from a
  literal list of the weights of the twelve generator modules.
- c(lam), the multiplicity of W(lam) in the degree-k part of C_42, the trace
  algebra of two generic 4x4 matrices, is the Kronecker sum
  sum over mu |- k with at most 4 rows of g(lam, mu, mu) (Procesi,
  Formanek), where g(lam, mu, nu) = sum_rho chi^lam chi^mu chi^nu / z_rho.
  The characters come from backward Murnaghan-Nakayama: removing border
  strips from beta sets, memoized.
- h(a, b) = sum of c(lam) over lam |- a + b with l2 <= min(a, b) (the
  Kostka numbers of two-row shapes), h0 = h (1 - t)(1 - u) is the series of
  the traceless part C^0, and c0(lam) = h0(l1, l2) - h0(l1 + 1, l2 - 1).
"""

from __future__ import annotations

import functools
from math import factorial

# the weights of the twelve generator modules, in catalog order
MODULES = (
    (2, 0), (3, 0), (4, 0), (2, 2), (3, 2), (4, 2),
    (3, 3), (4, 3), (5, 3), (4, 4), (6, 3), (5, 5),
)

# the most rows of a mu in the Kronecker sum: the size of the matrices
ROWS = 4


def partitions(k: int, most: int | None = None, rows: int | None = None):
    """The partitions of k, parts descending, no part above most and at
    most rows parts."""
    most = k if most is None else most
    if k == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(k, most), 0, -1):
        for rest in partitions(k - first, first, None if rows is None else rows - 1):
            yield (first,) + rest


@functools.cache
def _chi_beta(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """The character of the partition with descending beta set beta at the
    class rho: remove a border strip of length rho[0], a bead moving from b
    down to the free position b - rho[0], with the sign of the parity of
    the beads it passes, then recurse on rho[1:]."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for i, b in enumerate(beta):
        t = b - r
        if t < 0 or t in beta:
            continue
        passed = sum(1 for x in beta if t < x < b)
        new = tuple(sorted(beta[:i] + (t,) + beta[i + 1 :], reverse=True))
        total += (-1) ** passed * _chi_beta(new, rest)
    return total


def chi(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lam(rho)."""
    n = len(lam)
    return _chi_beta(tuple(part + n - 1 - i for i, part in enumerate(lam)), rho)


def _class_size(rho: tuple[int, ...]) -> int:
    """k! / z_rho, the number of permutations of cycle type rho."""
    z = 1
    for part in set(rho):
        count = rho.count(part)
        z *= part**count * factorial(count)
    return factorial(sum(rho)) // z


@functools.cache
def trace_multiplicities(k: int) -> dict[tuple[int, int], int]:
    """{(l1, l2): c(lam)} for the two-row lam |- k: the Kronecker sums."""
    classes = list(partitions(k))
    sizes = [_class_size(rho) for rho in classes]
    squares = [[chi(mu, rho) ** 2 for rho in classes] for mu in partitions(k, rows=ROWS)]
    out = {}
    for lam in partitions(k, rows=2):
        weighted = [s * chi(lam, rho) for s, rho in zip(sizes, classes)]
        total = 0
        for square in squares:
            # k! g(lam, mu, mu)
            g = sum(w * q for w, q in zip(weighted, square))
            assert g % factorial(k) == 0
            total += g // factorial(k)
        out[(lam + (0, 0))[:2]] = total
    return out


def h(a: int, b: int) -> int:
    """The bigraded Hilbert series of C_42 at t^a u^b."""
    if a < 0 or b < 0:
        return 0
    return sum(c for (_, l2), c in trace_multiplicities(a + b).items() if l2 <= min(a, b))


def h0(a: int, b: int) -> int:
    """The series of C^0: h (1 - t)(1 - u)."""
    return h(a, b) - h(a - 1, b) - h(a, b - 1) + h(a - 1, b - 1)


def c0(lam: tuple[int, int]) -> int:
    """The multiplicity of W(lam) in C^0."""
    l1, l2 = lam
    return h0(l1, l2) - (h0(l1 + 1, l2 - 1) if l2 else 0)


@functools.cache
def _generator_series(top: int) -> dict[tuple[int, int], int]:
    """{(p, q): the number of monomials of bidegree (p, q)} in the
    polynomial algebra on the generators of MODULES, a module (l1, l2)
    giving one generator of each bidegree (l1 - j, l2 + j), for p + q <= top."""
    series = {(0, 0): 1}
    for l1, l2 in MODULES:
        for j in range(l1 - l2 + 1):
            gp, gq = l1 - j, l2 + j
            # multiply by 1 / (1 - t^gp u^gq), in ascending total degree
            for d in range(gp + gq, top + 1):
                for p in range(d + 1):
                    if p >= gp and d - p >= gq:
                        below = series.get((p - gp, d - p - gq), 0)
                        if below:
                            series[(p, d - p)] = series.get((p, d - p), 0) + below
    return series


def multiplicity(lam: tuple[int, int]) -> int:
    """m(lam), the multiplicity of W(lam) in the generator algebra."""
    l1, l2 = lam
    series = _generator_series(max(l1 + l2, 15))
    return series.get((l1, l2), 0) - (series.get((l1 + 1, l2 - 1), 0) if l2 else 0)


def relation_count(lam: tuple[int, int]) -> int:
    """r = m - c0 at lam, which is the relation count exactly where the
    generators reach all of C^0."""
    return multiplicity(lam) - c0(lam)
