"""The twelve irreducible generator modules of the traceless trace algebra.

Each module W(l1, l2) is spanned by a ladder basis e_0 .. e_a with
a = l1 - l2, obtained from the highest weight vector by repeated lowering:
e_j = delta1^j(w) / (a (a-1) ... (a-j+1)).  The highest weight vectors are
tr([x,y]^l2 x^(l1-l2)) for eleven of the modules; the (5,5) module uses
tr([x,y]^3 (x^2 y^2 - x y^2 x - y x^2 y + y^2 x^2)).

The 30 basis elements across all modules are the abstract generators
u_{i,j}; AbsPoly is the polynomial algebra they span.  The raising and
lowering maps act by abs_delta(u_{i,j}) = j u_{i,j-1} and
abs_delta1(u_{i,j}) = (a_i - j) u_{i,j+1}; these constants are certified
against the generic-matrix oracle the first time the catalog is built, and
construction aborts if any check fails.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from . import genmat
from .cache import digest_text
from ._lazy import np
from .packedpoly import NVARS, PackedPoly, SumTable
from .polyring import BiSeries, Rational
from .tracelang import (
    NcPoly,
    NotHomogeneous,
    TraceExpr,
    X,
    Y,
    commutator,
    delta,
    delta1,
    format_trace_expr,
    nc_mul,
    nc_pow,
    trace_of,
)

_CERT_VERSION = "catalog-cert-1"


class Partition(NamedTuple):
    """A two-row partition (l1 >= l2 >= 0)."""

    l1: int
    l2: int

    @classmethod
    def of(cls, l1: int, l2: int) -> "Partition":
        if not (l1 >= l2 >= 0):
            raise ValueError(f"not a partition: ({l1}, {l2})")
        return cls(l1, l2)

    @property
    def total(self) -> int:
        return self.l1 + self.l2


# Module partitions in the fixed catalog order.
PARTS: tuple[Partition, ...] = tuple(
    Partition.of(*p)
    for p in (
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
    )
)


class GeneratorModule(NamedTuple):
    """One module of the generator catalog: its partition, its highest
    weight vector and the lowering ladder from it, hwv first."""

    index: int            # 1-based position in the catalog
    partition: Partition
    hwv: TraceExpr
    basis: tuple[TraceExpr, ...]

    @property
    def a(self) -> int:
        return self.partition.l1 - self.partition.l2

    @property
    def b(self) -> int:
        return self.partition.l2

    @property
    def dimension(self) -> int:
        return self.a + 1


class CatalogCertificationError(RuntimeError):
    """Raised when a catalog identity fails against the evaluation oracle."""


def _hwv_expr(part: Partition) -> TraceExpr:
    a, b = part.l1 - part.l2, part.l2
    C = commutator(X, Y)
    if part == (5, 5):
        tail = (
            NcPoly.word("xxyy")
            - NcPoly.word("xyyx")
            - NcPoly.word("yxxy")
            + NcPoly.word("yyxx")
        )
        return trace_of(nc_mul(nc_pow(C, 3), tail))
    return trace_of(nc_mul(nc_pow(C, b), nc_pow(X, a)))


def _build_modules() -> tuple[GeneratorModule, ...]:
    mods = []
    for idx, part in enumerate(PARTS, start=1):
        a = part.l1 - part.l2
        w = _hwv_expr(part)
        basis = [w]
        for j in range(1, a + 1):
            # e_j = delta1(e_{j-1}) / (a - j + 1)
            basis.append(delta1(basis[-1]).scale(Fraction(1, a - j + 1)))
        mods.append(GeneratorModule(idx, part, w, tuple(basis)))
    return tuple(mods)


def _catalog_digest(mods: tuple[GeneratorModule, ...]) -> str:
    text = _CERT_VERSION + "\n" + "\n".join(
        format_trace_expr(e) for m in mods for e in m.basis
    )
    return digest_text(text)


def _certify(mods: tuple[GeneratorModule, ...], cache: genmat.EvalCache) -> None:
    # (e, delta1(e), delta(e)) for every basis element; the word traces of
    # all of them are evaluated first, in one pass that shares prefixes
    checks = [[(e, delta1(e), delta(e)) for e in mod.basis] for mod in mods]
    genmat.word_traces_packed(
        (w for triples in checks for t in triples for e in t for mono in e.terms for w in mono),
        cache,
    )
    for mod, triples in zip(mods, checks):
        a, b = mod.a, mod.b
        evs = [genmat.eval_trace_expr_packed(e, cache) for e in mod.basis]
        if evs[0].is_zero():
            raise CatalogCertificationError(
                f"module {mod.index}: highest weight vector evaluates to zero"
            )
        for j, (e, lowering, raising) in enumerate(triples):
            from .tracelang import bidegree as te_bidegree

            if te_bidegree(e) != (a + b - j, b + j):
                raise CatalogCertificationError(
                    f"module {mod.index}: basis element {j} has wrong bidegree"
                )
            lowered = genmat.eval_trace_expr_packed(lowering, cache)
            want = evs[j + 1].scale(Fraction(a - j)) if j < a else None
            ok = lowered.is_zero() if want is None else lowered.add(want.neg()).is_zero()
            if not ok:
                raise CatalogCertificationError(
                    f"module {mod.index}: lowering constant fails at j={j}"
                )
            raised = genmat.eval_trace_expr_packed(raising, cache)
            want = evs[j - 1].scale(Fraction(j)) if j > 0 else None
            ok = raised.is_zero() if want is None else raised.add(want.neg()).is_zero()
            if not ok:
                raise CatalogCertificationError(
                    f"module {mod.index}: raising constant fails at j={j}"
                )


_CATALOG: tuple[GeneratorModule, ...] | None = None
_CATALOG_LOCK = threading.Lock()


def catalog(cache: genmat.EvalCache | None = None) -> tuple[GeneratorModule, ...]:
    """The twelve generator modules, certified on first construction.

    The first call in a process certifies the catalog on the given cache
    (the default cache if none is given), unless its store already holds
    the verdict.  Every cache passed in has the verdict written into its
    store, once per cache, if the store lacks it."""
    global _CATALOG
    if _CATALOG is not None and (cache is None or cache._catalog_stored):
        return _CATALOG
    with _CATALOG_LOCK:
        if _CATALOG is not None and (cache is None or cache._catalog_stored):
            return _CATALOG
        cache = cache or genmat.default_cache()
        mods = _CATALOG or _build_modules()
        digest = _catalog_digest(mods)
        verdict_key = f"catalog-cert:{digest}"
        store = cache.store
        verdict = store.get_json(verdict_key) if store is not None else None
        if not (isinstance(verdict, dict) and verdict.get("ok") is True):
            if _CATALOG is None:
                _certify(mods, cache)
            if store is not None:
                store.put_json(verdict_key, {"ok": True, "digest": digest})
        cache._catalog_stored = True
        _CATALOG = mods
    return _CATALOG


def catalog_digest(cache: genmat.EvalCache | None = None) -> str:
    """Digest of the certified catalog (see catalog for the cache)."""
    return _catalog_digest(catalog(cache))


# ---------------------------------------------------------------------------
# Abstract generators.


class AbsGen(NamedTuple):
    """One of the 30 abstract generators, u{module}_{j}, and its bidegree."""

    gid: int              # 0-based position in the global generator order
    module: int           # 1-based module index
    j: int
    bidegree: tuple[int, int]

    @property
    def name(self) -> str:
        return f"u{self.module}_{self.j}"


def _build_absgens() -> tuple[AbsGen, ...]:
    gens = []
    for idx, part in enumerate(PARTS, start=1):
        a, b = part.l1 - part.l2, part.l2
        for j in range(a + 1):
            gens.append(AbsGen(len(gens), idx, j, (a + b - j, b + j)))
    return tuple(gens)


ABS_GENS: tuple[AbsGen, ...] = _build_absgens()
NGENS = len(ABS_GENS)
assert NGENS == 30

_GID_BY_MODJ = {(g.module, g.j): g.gid for g in ABS_GENS}


def gen_by_modj(module: int, j: int) -> AbsGen:
    return ABS_GENS[_GID_BY_MODJ[(module, j)]]


# An AbsPoly monomial is a sorted tuple of gids (with repetition).
AbsMonomial = tuple[int, ...]


def mono_bidegree(mono: AbsMonomial) -> tuple[int, int]:
    p = sum(ABS_GENS[g].bidegree[0] for g in mono)
    q = sum(ABS_GENS[g].bidegree[1] for g in mono)
    return (p, q)


def mono_name(mono: AbsMonomial) -> str:
    """Readable form, e.g. u5_0*u8_1 or u7_0^2.  The empty monomial is 1."""
    if not mono:
        return "1"
    parts = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        g = ABS_GENS[mono[i]]
        parts.append(g.name + (f"^{j - i}" if j - i > 1 else ""))
        i = j
    return "*".join(parts)


class AbsPoly:
    """A polynomial in the abstract generators u_{i,j}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[AbsMonomial, Rational] | None = None):
        self.terms: dict[AbsMonomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if any(g < 0 or g >= NGENS for g in m):
                    raise ValueError(f"bad generator id in monomial {m}")
                if tuple(sorted(m)) != tuple(m):
                    raise ValueError(f"monomial {m} is not sorted")
                if c:
                    self.terms[m] = Fraction(c)

    @classmethod
    def zero(cls) -> "AbsPoly":
        return cls()

    @classmethod
    def gen(cls, module: int, j: int) -> "AbsPoly":
        return cls({(gen_by_modj(module, j).gid,): Fraction(1)})

    @classmethod
    def monomial(cls, mono: Iterable[int], c: Rational = 1) -> "AbsPoly":
        return cls({tuple(sorted(mono)): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "AbsPoly":
        out = AbsPoly()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other: "AbsPoly") -> "AbsPoly":
        out = AbsPoly()
        out.terms = dict(self.terms)
        for m, c in other.terms.items():
            s = out.terms.get(m, Fraction(0)) + c
            if s:
                out.terms[m] = s
            else:
                out.terms.pop(m, None)
        return out

    def __sub__(self, other: "AbsPoly") -> "AbsPoly":
        return self + (-other)

    def __mul__(self, other: "AbsPoly") -> "AbsPoly":
        out = AbsPoly()
        acc = out.terms
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(sorted(ma + mb))
                s = acc.get(m, Fraction(0)) + ca * cb
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return out

    def scale(self, c: Rational) -> "AbsPoly":
        if not c:
            return AbsPoly()
        out = AbsPoly()
        out.terms = {m: v * c for m, v in self.terms.items()}
        return out

    def bidegree(self) -> tuple[int, int]:
        deg: tuple[int, int] | None = None
        for m in self.terms:
            d = mono_bidegree(m)
            if deg is None:
                deg = d
            elif deg != d:
                raise NotHomogeneous(f"mixed bidegrees {deg} and {d}")
        return deg if deg is not None else (0, 0)

    def sorted_terms(self) -> list[tuple[AbsMonomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _mono_grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"AbsPoly({len(self.terms)} terms)"


def _mono_exps(mono: AbsMonomial) -> tuple[int, ...]:
    e = [0] * NGENS
    for g in mono:
        e[g] += 1
    return tuple(e)


def _mono_grlex_key(mono: AbsMonomial) -> tuple:
    return (len(mono), _mono_exps(mono))


def abs_poly_text(p: AbsPoly) -> str:
    """Canonical one-line text form, used for digests."""
    parts = []
    for m, c in p.sorted_terms():
        parts.append(f"{c.numerator}/{c.denominator} {mono_name(m)}")
    return "; ".join(parts) if parts else "0"


def abs_delta(p: AbsPoly) -> AbsPoly:
    """Raising derivation: u_{i,j} -> j u_{i,j-1}."""
    out = AbsPoly()
    acc = out.terms
    for mono, c in p.terms.items():
        for pos, gid in enumerate(mono):
            g = ABS_GENS[gid]
            if g.j == 0:
                continue
            m2 = tuple(sorted(mono[:pos] + (gid - 1,) + mono[pos + 1 :]))
            s = acc.get(m2, Fraction(0)) + c * g.j
            if s:
                acc[m2] = s
            else:
                acc.pop(m2, None)
    return out


def abs_delta1(p: AbsPoly) -> AbsPoly:
    """Lowering derivation: u_{i,j} -> (a_i - j) u_{i,j+1}."""
    out = AbsPoly()
    acc = out.terms
    for mono, c in p.terms.items():
        for pos, gid in enumerate(mono):
            g = ABS_GENS[gid]
            part = PARTS[g.module - 1]
            a = part.l1 - part.l2
            if g.j == a:
                continue
            m2 = tuple(sorted(mono[:pos] + (gid + 1,) + mono[pos + 1 :]))
            s = acc.get(m2, Fraction(0)) + c * (a - g.j)
            if s:
                acc[m2] = s
            else:
                acc.pop(m2, None)
    return out


def phi_monomial(mono: AbsMonomial, cache: genmat.EvalCache | None = None) -> TraceExpr:
    """phi of one generator monomial (see catalog for the cache)."""
    mods = catalog(cache)
    out = TraceExpr.constant(Fraction(1))
    for gid in mono:
        g = ABS_GENS[gid]
        out = out * mods[g.module - 1].basis[g.j]
    return out


def phi(p: AbsPoly, cache: genmat.EvalCache | None = None) -> TraceExpr:
    """The substitution u_{i,j} -> e_j of module i, extended multiplicatively.

    The catalog is certified on the cache (see catalog), so a cache whose
    store holds the verdict evaluates no word traces."""
    out = TraceExpr.zero()
    for mono, c in p.terms.items():
        out = out + phi_monomial(mono, cache).scale(c)
    return out


def _gen_evals(cache: genmat.EvalCache) -> list[PackedPoly]:
    """Evaluations of the 30 generators, memoized on the cache."""
    gens = cache._gens
    if gens is None:
        mods = catalog(cache)
        gens = [
            genmat.eval_trace_expr_packed(mods[g.module - 1].basis[g.j], cache)
            for g in ABS_GENS
        ]
        with cache._lock:
            cache._gens = gens
    return gens


def eval_abs_monomial(
    mono: AbsMonomial, cache: genmat.EvalCache | None = None
) -> PackedPoly:
    """Packed evaluation of one generator monomial (see eval_abs_monomials)."""
    return eval_abs_monomials([mono], cache)[0]


# Generator-monomial products run on at most this many threads, the caller
# included: the sorts that build a sum table release the GIL (its
# scatter-adds hold it), and every added thread keeps its own malloc arena,
# so threads cost memory.
_PRODUCT_THREADS = 4
# The groups of one in_threads call (a trie level, or the fresh leaves of one
# assembly) run on the calling thread while their raw volume, the sum over
# their products of nnz(prefix) * nnz(generator), is below this.  Measured
# on a 2-CPU box: the fresh leaves of a degree-12 weight reach 4.5 M raw
# terms, and two threads saved them about 0.05 s but raised the peak RSS of
# the degree-12 benchmark from 78.5 to as much as 83.7 MB.  The three
# degree-14 relation spaces, whose fresh leaves reach 7.1 M to 18.3 M, take
# 1.47 s with two threads against 1.70 s with one.
_PARALLEL_TERMS = 5_000_000


def eval_abs_monomials(
    monos: Iterable[AbsMonomial], cache: genmat.EvalCache | None = None
) -> list[PackedPoly]:
    """Packed evaluations of generator monomials, with prefix sharing.

    A monomial m of two or more generators is evaluated as
    ev(m[:-1]) * ev(m[-1]), and every evaluation is memoized on the cache
    (the default cache if none is given); cache.stats.gen_products counts
    the products computed.  The missing prefixes of the monomials are
    computed one length (one level of their trie) at a time, the products
    of a level through one SumTable per last generator (see ProductGroup)."""
    monos = list(monos)
    cache = cache or genmat.default_cache()
    memo = cache._abs_monos
    levels: dict[int, dict[AbsMonomial, None]] = {}
    for mono in monos:
        for n in range(len(mono), 0, -1):
            if mono[:n] in memo or mono[:n] in levels.get(n, ()):
                break
            levels.setdefault(n, {})[mono[:n]] = None
    if levels:
        gens = _gen_evals(cache)
        with cache._lock:
            for mono in levels.pop(1, ()):
                memo[mono] = gens[mono[0]]
        for n in sorted(levels):
            groups = _by_last_generator(levels[n], cache)
            in_threads(groups, ProductGroup.volume, lambda group: group.evaluate(cache))
    return [
        memo[m] if m else PackedPoly.from_terms([((0,) * NVARS, Fraction(1))])
        for m in monos
    ]


class ProductGroup:
    """Distinct monomials m of two or more generators that end in one
    generator g, whose prefixes m[:-1] are memoized, and the SumTable that
    multiplies those prefixes by ev(g).  build raises PackedCapacityError
    if some product would overflow a packed field."""

    def __init__(self, monos: list[AbsMonomial], cache: genmat.EvalCache):
        memo = cache._abs_monos
        self.monos = monos
        self.gen = _gen_evals(cache)[monos[0][-1]]
        self.prefixes = [memo[m[:-1]] for m in monos]
        self.table: SumTable | None = None

    def volume(self) -> int:
        return sum(p.nnz for p in self.prefixes) * self.gen.nnz

    def build(self) -> None:
        self.table = SumTable(self.prefixes, self.gen)

    def evaluate(self, cache: genmat.EvalCache) -> None:
        """build, then take every product (see products) and memoize it."""
        self.build()
        for m, _, out in self.products(cache):
            with cache._lock:
                cache._abs_monos[m] = out

    def products(
        self, cache: genmat.EvalCache
    ) -> Iterator[tuple[AbsMonomial, np.ndarray, PackedPoly]]:
        """(m, pos, ev(m)) for every monomial m, where the keys of ev(m) are
        table.sums[pos]; each ev(m) is counted as it is computed, and the
        table is dropped after the last.  Nothing is memoized here, so an
        ev(m) that the caller does not keep dies with its step."""
        for m, prefix in zip(self.monos, self.prefixes):
            pos, out = self.table.product(prefix)
            with cache._lock:
                cache.stats.gen_products += 1
            yield m, pos, out
        self.table = None


def _by_last_generator(
    monos: Iterable[AbsMonomial], cache: genmat.EvalCache
) -> list[ProductGroup]:
    by_gen: dict[int, list[AbsMonomial]] = {}
    for m in monos:
        by_gen.setdefault(m[-1], []).append(m)
    return [ProductGroup(ms, cache) for ms in by_gen.values()]


def leaf_groups(
    monos: Iterable[AbsMonomial], cache: genmat.EvalCache | None = None
) -> tuple[dict[AbsMonomial, PackedPoly], list[ProductGroup]]:
    """(evals, groups) for distinct monomials: evals maps the monomials that
    are already evaluated to their evaluations; the others, the fresh
    leaves, are in groups, whose tables are built (see in_threads).  Every
    prefix of a fresh leaf is evaluated first (see eval_abs_monomials); a
    fresh leaf is evaluated only when its group's products are taken, and is
    not memoized."""
    monos = list(monos)
    cache = cache or genmat.default_cache()
    memo = cache._abs_monos
    eval_abs_monomials([m[:-1] for m in monos if len(m) > 1 and m not in memo], cache)
    fresh = [m for m in monos if len(m) > 1 and m not in memo]
    done = [m for m in monos if len(m) <= 1 or m in memo]
    groups = _by_last_generator(fresh, cache)
    in_threads(groups, ProductGroup.volume, ProductGroup.build)
    return dict(zip(done, eval_abs_monomials(done, cache))), groups


_T = TypeVar("_T")


def in_threads(
    items: Sequence[_T], cost: Callable[[_T], int], work: Callable[[_T], object]
) -> None:
    """work(item) for every item, largest cost first.  When the costs sum to
    _PARALLEL_TERMS or more, up to _PRODUCT_THREADS threads (os.cpu_count(),
    capped), the calling thread among them, take the items one at a time."""
    costs = [cost(item) for item in items]
    order = sorted(range(len(items)), key=costs.__getitem__, reverse=True)
    todo = (items[k] for k in order)
    lock = threading.Lock()

    def run() -> None:
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            work(item)

    workers = min(os.cpu_count() or 1, _PRODUCT_THREADS, len(items))
    if workers < 2 or sum(costs) < _PARALLEL_TERMS:
        run()
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        run()
        for h in helpers:
            h.result()


# ---------------------------------------------------------------------------
# Hilbert series.


def schur(lam: Partition, D: int) -> BiSeries:
    """GL2 character of W(l1, l2) as a truncated series in (t, u)."""
    lam = Partition.of(*lam)
    out = BiSeries(D)
    if lam.total <= D:
        for j in range(lam.l1 - lam.l2 + 1):
            out.coeffs[(lam.l1 - j, lam.l2 + j)] = Fraction(1)
    return out


_HILBERT: dict[int, BiSeries] = {}
_HILBERT_LOCK = threading.Lock()


def hilbert_KG0(D: int = 14) -> BiSeries:
    """Hilbert series of the polynomial algebra on the 30 generators,
    bigraded by (x-degree, y-degree), truncated at total degree D."""
    with _HILBERT_LOCK:
        hit = _HILBERT.get(D)
        if hit is not None:
            return hit
        # h[p][q] is the coefficient of t^p u^q.  Dividing by 1 - t^a u^b in
        # place, in increasing (p, q), multiplies by the geometric series.
        h = [[0] * (D + 1 - p) for p in range(D + 1)]
        h[0][0] = 1
        for g in ABS_GENS:
            a, b = g.bidegree
            for p in range(a, D + 1):
                row, src = h[p], h[p - a]
                for q in range(b, D + 1 - p):
                    row[q] += src[q - b]
        out = BiSeries(D, {(p, q): c for p, row in enumerate(h) for q, c in enumerate(row)})
        _HILBERT[D] = out
    return out


def hilbert_coeff(lam: Partition) -> int:
    lam = Partition.of(*lam)
    c = hilbert_KG0(max(14, lam.total)).coeff(lam.l1, lam.l2)
    if c.denominator != 1:
        raise AssertionError("non-integer Hilbert coefficient")
    return int(c)


def multiplicity(lam: Partition) -> int:
    """Multiplicity of W(lam) in the generator polynomial algebra:
    h(l1, l2) - h(l1 + 1, l2 - 1)."""
    lam = Partition.of(*lam)
    P = hilbert_coeff(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 > 0 else 0
    return P - Q


def bidegree_monomials(p: int, q: int) -> list[AbsMonomial]:
    """All generator monomials of bidegree (p, q), for any p, q >= 0, in the
    order of a depth-first walk over the generators."""
    out: list[AbsMonomial] = []

    def recurse(gid: int, p: int, q: int, acc: list[int]) -> None:
        if p == 0 and q == 0:
            out.append(tuple(acc))
            return
        if gid >= NGENS:
            return
        gp, gq = ABS_GENS[gid].bidegree
        recurse(gid + 1, p, q, acc)
        if gp <= p and gq <= q:
            acc.append(gid)
            recurse(gid, p - gp, q - gq, acc)
            acc.pop()

    recurse(0, p, q, [])
    return out


def abs_monomials(lam: Partition) -> list[AbsMonomial]:
    """All generator monomials of bidegree exactly lam, in graded-lex
    descending order.  The count equals the Hilbert coefficient."""
    lam = Partition.of(*lam)
    out = sorted(bidegree_monomials(lam.l1, lam.l2), key=_mono_grlex_key, reverse=True)
    if len(out) != hilbert_coeff(lam):
        raise AssertionError("monomial count disagrees with the Hilbert series")
    return out


def generator_degree_audit() -> dict[int, int]:
    """Module dimensions summed by total degree.  The degree-1 slot counts
    the two degree-one trace generators of the ambient (non-traceless)
    algebra, which the traceless convention removes."""
    audit = {1: 2}
    for part in PARTS:
        d = part.total
        audit[d] = audit.get(d, 0) + (part.l1 - part.l2 + 1)
    return dict(sorted(audit.items()))


def catalog_json(cache: genmat.EvalCache | None = None) -> dict:
    """The catalog, its generators and degree audit (see catalog for the cache)."""
    mods = catalog(cache)
    return {
        "modules": [
            {
                "index": m.index,
                "partition": list(m.partition),
                "a": m.a,
                "b": m.b,
                "dimension": m.dimension,
                "hwv": format_trace_expr(m.hwv),
                "basis": [format_trace_expr(e) for e in m.basis],
            }
            for m in mods
        ],
        "generators": [
            {"gid": g.gid, "module": g.module, "j": g.j, "bidegree": list(g.bidegree), "name": g.name}
            for g in ABS_GENS
        ],
        "degree_audit": {str(k): v for k, v in generator_degree_audit().items()},
    }
