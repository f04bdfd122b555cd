"""The twelve irreducible generator modules of the traceless trace algebra.

Each module W(l1, l2) is spanned by a ladder basis e_0 .. e_a with
a = l1 - l2, obtained from the highest weight vector by repeated lowering:
e_j = delta1^j(w) / (a (a-1) ... (a-j+1)).  The highest weight vectors are
tr([x,y]^l2 x^(l1-l2)) for eleven of the modules; the (5,5) module uses
tr([x,y]^3 (x^2 y^2 - x y^2 x - y x^2 y + y^2 x^2)).

The 30 basis elements across all modules are the abstract generators
u_{i,j}; AbsPoly is the polynomial algebra they span.  The raising and
lowering maps act by abs_delta(u_{i,j}) = j u_{i,j-1} and
abs_delta1(u_{i,j}) = (a_i - j) u_{i,j+1}.  These ladder constants hold
formally, as identities of trace expressions: delta1(e_j) = (a - j) e_{j+1}
for j < a by construction, and the certificate checks delta1(e_a) = 0 and
delta(e_j) = j e_{j-1} with nothing evaluated.  One evaluation of the 30
generators, from the word traces of the cache being certified, then proves
ev(e_0) != 0 and D(ev(e_j)) = j ev(e_{j-1}) for the evaluated raising map D
(see genmat.eval_delta); catalog raises if any check fails.  Evaluation is
a ring homomorphism and both maps are derivations, so D(ev(p)) =
ev(abs_delta(p)) for every generator polynomial p: a polynomial that
abs_delta kills has an evaluation that D kills.  The modules and their
digest are built once per process; the certificate holds for the word
traces it was checked on, so it is made once per EvalCache (see catalog).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import genmat
from .cache import digest_text
from ._lazy import np
from .packedpoly import NVARS, PackedPoly, SumTable, content
from .polyring import LinComb, Rational, add_nums, combination
from .tracelang import (
    NcPoly,
    NotHomogeneous,
    TraceExpr,
    X,
    Y,
    bidegree,
    commutator,
    delta,
    delta1,
    format_trace_expr,
    trace_of,
)

_CERT_VERSION = "catalog-cert-2"


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
    """Raised when a formal check of the catalog, on trace expressions, or
    an evaluated check fails."""


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
        return trace_of(C**3 * tail)
    return trace_of(C**b * X**a)


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


def _compose_gens(mods: tuple[GeneratorModule, ...], cache: genmat.EvalCache) -> list[PackedPoly]:
    """Evaluations of the 30 generators of mods, in ABS_GENS order, from the
    word traces of the cache, which computes the ones it lacks in one pass."""
    genmat.word_traces_packed(
        (w for mod in mods for e in mod.basis for mono in e.nums for w in mono), cache
    )
    return [genmat.eval_trace_expr_packed(e, cache) for mod in mods for e in mod.basis]


def _certify(mods: tuple[GeneratorModule, ...], cache: genmat.EvalCache) -> list[PackedPoly]:
    """The evaluations of the 30 generators (see _compose_gens), once every
    check passes; CatalogCertificationError at the first check that fails.
    On trace expressions, with nothing evaluated: the bidegree of each e_j,
    delta1(e_a) = 0 and delta(e_j) = j e_{j-1} (TraceExpr equality compares
    normalized terms, so it fails wherever the expressions differ); then,
    on the evaluations, ev(e_0) != 0 and D(ev(e_j)) = j ev(e_{j-1}).
    delta1(e_j) = (a - j) e_{j+1} for j < a holds by construction (see
    _build_modules)."""

    def check(mod: GeneratorModule, name: str, j: int, ok: bool) -> None:
        if not ok:
            raise CatalogCertificationError(f"module {mod.index}: {name} fails at j={j}")

    for mod in mods:
        a, b, basis = mod.a, mod.b, mod.basis
        for j, e in enumerate(basis):
            check(mod, "bidegree", j, bidegree(e) == (a + b - j, b + j))
            below = basis[j - 1].scale(Fraction(j)) if j else TraceExpr.zero()
            check(mod, "raising constant", j, delta(e) == below)
        check(mod, "lowering constant", a, delta1(basis[a]).is_zero())
    gens = _compose_gens(mods, cache)
    rest = iter(gens)
    for mod in mods:
        evs = [next(rest) for _ in mod.basis]
        check(mod, "nonzero highest weight vector", 0, not evs[0].is_zero())
        for j, ev in enumerate(evs):
            below = evs[j - 1].scale(Fraction(j)) if j else PackedPoly.zero()
            check(mod, "evaluated raising", j, genmat.eval_delta(ev).add(below.neg()).is_zero())
    return gens


@functools.cache
def _definition() -> tuple[tuple[GeneratorModule, ...], str]:
    """The twelve modules and their digest, built once per process."""
    mods = _build_modules()
    return mods, _catalog_digest(mods)


def catalog(cache: genmat.EvalCache) -> tuple[GeneratorModule, ...]:
    """The twelve generator modules, certified once on the cache: on the
    word traces it computes (see _certify), unless its store holds the
    verdict.  The 30 generator evaluations of a certification become the
    cache's generators, and a store gets them under gens:v1:<digest>, then
    the verdict; a failed check writes neither."""
    mods, digest = _definition()
    if not cache._catalog_certified:
        store = cache.store
        key = f"catalog-cert:{digest}"
        verdict = store.get_json(key) if store is not None else None
        if not (isinstance(verdict, dict) and verdict.get("ok") is True):
            gens = _certify(mods, cache)
            if store is not None:
                store.put_polys(f"gens:v1:{digest}", gens)
                store.put_json(key, {"ok": True, "digest": digest})
            with cache._lock:
                cache._gens = gens
        cache._catalog_certified = True
    return mods


def catalog_digest() -> str:
    """Digest of the catalog's definition; nothing is certified."""
    return _definition()[1]


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


class AbsPoly(LinComb):
    """A polynomial in the abstract generators u_{i,j}: a LinComb whose
    monomials are sorted tuples of generator ids, so that nums[m] / den is
    the coefficient of m.  The constructor, the path of outside input,
    rejects a bad generator id or an unsorted monomial."""

    __slots__ = ()

    def __init__(
        self, terms: Mapping[AbsMonomial, Rational | int] | None = None, den: int = 1
    ):
        """sum terms[m] / den * m over the monomials m of terms."""
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        self._fill(terms, den)

    def _check_monomial(self, m: AbsMonomial) -> None:
        if any(g < 0 or g >= NGENS for g in m):
            raise ValueError(f"bad generator id in monomial {m}")
        if tuple(sorted(m)) != tuple(m):
            raise ValueError(f"monomial {m} is not sorted")

    @staticmethod
    def mono_mul(a: AbsMonomial, b: AbsMonomial) -> AbsMonomial:
        # sorting the concatenation of two sorted runs merges them
        return tuple(sorted(a + b))

    @classmethod
    def gen(cls, module: int, j: int) -> "AbsPoly":
        return cls({(gen_by_modj(module, j).gid,): 1})

    @classmethod
    def monomial(cls, mono: Iterable[int], c: Rational | int = 1) -> "AbsPoly":
        return cls({tuple(sorted(mono)): c})

    def bidegree(self) -> tuple[int, int]:
        deg: tuple[int, int] | None = None
        for m in self.nums:
            d = mono_bidegree(m)
            if deg is None:
                deg = d
            elif deg != d:
                raise NotHomogeneous(f"mixed bidegrees {deg} and {d}")
        return deg if deg is not None else (0, 0)

    def _sorted_monomials(self) -> list[AbsMonomial]:
        return sorted(self.nums, key=_mono_grlex_key, reverse=True)

    def sorted_terms(self) -> list[tuple[AbsMonomial, Fraction]]:
        return [(m, Fraction(self.nums[m], self.den)) for m in self._sorted_monomials()]

    def text_terms(self) -> list[tuple[AbsMonomial, str]]:
        """(m, "n/d") in the order of sorted_terms, each coefficient in
        lowest terms, as its Fraction prints numerator and denominator."""
        out = []
        for m in self._sorted_monomials():
            v = self.nums[m]
            g = gcd(v, self.den)
            out.append((m, f"{v // g}/{self.den // g}"))
        return out


def _mono_exps(mono: AbsMonomial) -> tuple[int, ...]:
    e = [0] * NGENS
    for g in mono:
        e[g] += 1
    return tuple(e)


def _mono_grlex_key(mono: AbsMonomial) -> tuple:
    return (len(mono), _mono_exps(mono))


def abs_poly_text(p: AbsPoly) -> str:
    """Canonical one-line text form, used for digests."""
    parts = [f"{c} {mono_name(m)}" for m, c in p.text_terms()]
    return "; ".join(parts) if parts else "0"


# abs_delta(u_{i,j}) = j u_{i,j-1} and abs_delta1(u_{i,j}) = (a_i - j) u_{i,j+1}
_RAISING = tuple(g.j for g in ABS_GENS)
_LOWERING = tuple(PARTS[g.module - 1].l1 - PARTS[g.module - 1].l2 - g.j for g in ABS_GENS)


def _derivation(p: AbsPoly, factor: tuple[int, ...], step: int) -> AbsPoly:
    """The derivation u_g -> factor[g] u_{g + step}, with step -1 or +1.

    A monomial is sorted, so replacing the first of a run of g by g - 1, or
    the last by g + 1, keeps it sorted; each run counts once, times its
    length."""

    def pairs():
        for mono, c in p.nums.items():
            n = len(mono)
            start = 0
            while start < n:
                gid = mono[start]
                end = start + 1
                while end < n and mono[end] == gid:
                    end += 1
                f = factor[gid]
                if f:
                    at = start if step < 0 else end - 1
                    yield mono[:at] + (gid + step,) + mono[at + 1 :], c * f * (end - start)
                start = end

    return AbsPoly._of(add_nums({}, pairs()), p.den)


def abs_delta(p: AbsPoly) -> AbsPoly:
    """Raising derivation: u_{i,j} -> j u_{i,j-1}."""
    return _derivation(p, _RAISING, -1)


def abs_delta1(p: AbsPoly) -> AbsPoly:
    """Lowering derivation: u_{i,j} -> (a_i - j) u_{i,j+1}."""
    return _derivation(p, _LOWERING, 1)


def phi_monomial(mono: AbsMonomial) -> TraceExpr:
    """phi of one generator monomial."""
    mods = _definition()[0]
    out = TraceExpr.constant(1)
    for gid in mono:
        g = ABS_GENS[gid]
        out = out * mods[g.module - 1].basis[g.j]
    return out


def phi(p: AbsPoly) -> TraceExpr:
    """The substitution u_{i,j} -> e_j of module i, extended multiplicatively.
    It rewrites trace expressions and evaluates nothing."""
    nums, den = combination((v, phi_monomial(m)) for m, v in p.nums.items())
    return TraceExpr._of(nums, den * p.den)


def _gen_evals(cache: genmat.EvalCache) -> list[PackedPoly]:
    """Evaluations of the 30 generators, memoized on the cache: from the
    certificate (see catalog), else from the store's gens:v1:<digest>
    entry; a missing or corrupt entry is composed again from word traces
    computed afresh (see _compose_gens) and rewritten."""
    if cache._gens is None:
        mods = catalog(cache)
        if cache._gens is None:
            store = cache.store
            key = f"gens:v1:{catalog_digest()}"
            gens = store.get_polys(key, NGENS) if store is not None else None
            if gens is None:
                gens = _compose_gens(mods, cache)
                if store is not None:
                    store.put_polys(key, gens)
            with cache._lock:
                cache._gens = gens
    return cache._gens


def gen_values(p: int, n: int, cache: genmat.EvalCache) -> np.ndarray | None:
    """Values mod p of the 30 generators at the first n points of p (see
    genmat.sample_points): an (30, n) int64 array, row gid for generator
    gid, or None when p divides a denominator of a generator.  Memoized per
    prime on the cache, which evaluates only the points it lacks."""
    have = cache._gen_values.get(p)
    if have is None or have.shape[1] < n:
        mods = catalog(cache)
        start = 0 if have is None else have.shape[1]
        new = genmat.trace_expr_values(
            (mods[g.module - 1].basis[g.j] for g in ABS_GENS),
            genmat.sample_points(p, n)[start:],
            p,
        )
        if new is None:
            return None
        have = new if have is None else np.concatenate([have, new], axis=1)
        with cache._lock:
            cache._gen_values[p] = have
    return have[:, :n]


def eval_abs_monomial(mono: AbsMonomial, cache: genmat.EvalCache) -> PackedPoly:
    """Packed evaluation of one generator monomial, from the generator
    evaluations of the cache (see eval_abs_monomials)."""
    return eval_abs_monomials([mono], _gen_evals(cache), cache)[0]


def eval_abs_monomials(
    monos: Iterable[AbsMonomial], gens: list[PackedPoly], cache: genmat.EvalCache
) -> list[PackedPoly]:
    """Packed evaluations of generator monomials from gens, the evaluations
    of the 30 generators (in full, or on a slice such as y11 = 0), with
    prefix sharing within this call.

    A monomial m of two or more generators is evaluated as
    ev(m[:-1]) * ev(m[-1]); the prefixes of the monomials are computed one
    length (one level of their trie) at a time, each once, the products of
    a level through one SumTable per last generator (see ProductGroup).
    cache.stats.gen_products counts the products computed.  Nothing is
    kept on the cache: the prefixes die with the call, and a second call
    makes its products again."""
    monos = list(monos)
    levels: dict[int, dict[AbsMonomial, None]] = {}
    for mono in monos:
        for n in range(len(mono), 0, -1):
            if mono[:n] in levels.get(n, ()):
                break
            levels.setdefault(n, {})[mono[:n]] = None
    memo = {mono: gens[mono[0]] for mono in levels.pop(1, ())}
    for n in sorted(levels):
        memo.update(_products(levels[n], memo.__getitem__, gens, cache))
    return [
        memo[m] if m else PackedPoly.from_terms([((0,) * NVARS, Fraction(1))])
        for m in monos
    ]


class ProductGroup:
    """Distinct monomials m of two or more generators that end in one
    generator g, the evaluations of their prefixes m[:-1], and the SumTable
    that multiplies those prefixes, or any combination of them, by gen =
    ev(g).  The constructor raises PackedCapacityError if some product
    would overflow a packed field."""

    def __init__(
        self, monos: list[AbsMonomial], prefixes: list[PackedPoly], gen: PackedPoly
    ):
        self.monos = monos
        self.prefixes: list[PackedPoly] | None = prefixes
        self.table: SumTable | None = SumTable(prefixes, gen)

    def products(
        self, cache: genmat.EvalCache, polys: Iterable[PackedPoly]
    ) -> Iterator[tuple[np.ndarray, PackedPoly]]:
        """(pos, p * ev(g)) for every p of polys, where the keys of p lie
        among table.keys (the prefixes, or combinations of them) and the
        keys of the product are table.sums[pos]; each product is counted as
        it is computed, and the table is dropped after the last.  polys may
        be made lazily, one at a time.  Nothing is memoized here, so a
        product that the caller does not keep dies with its step."""
        for p in polys:
            pos, out = self.table.product(p)
            with cache._lock:
                cache.stats.gen_products += 1
            yield pos, out
        self.table = None


def _products(
    monos: Iterable[AbsMonomial], prefix, gens: list[PackedPoly], cache: genmat.EvalCache
) -> Iterator[tuple[AbsMonomial, PackedPoly]]:
    """(m, ev(m)) for each of monos, as prefix(m[:-1]) * ev(m[-1]), through
    one ProductGroup per last generator, in first-seen order."""
    for ms in _by_last_generator(monos):
        group = ProductGroup(ms, [prefix(m[:-1]) for m in ms], gens[ms[0][-1]])
        for (_, out), m in zip(group.products(cache, group.prefixes), ms):
            yield m, out


def _by_last_generator(monos: Iterable[AbsMonomial]) -> list[list[AbsMonomial]]:
    """monos split by their last generator, in first-seen order."""
    by_gen: dict[int, list[AbsMonomial]] = {}
    for m in monos:
        by_gen.setdefault(m[-1], []).append(m)
    return list(by_gen.values())


class LeafGroups:
    """The fresh leaves of leaf_groups as ProductGroups, one per last
    generator in first-seen order, made one at a time as they are iterated
    (once).

    The prefixes m[:-1] of a group's leaves, the leaf prefixes, and its
    table are made when the group is reached and dropped when the next one
    is asked for.  Each leaf prefix is the product of a generator with a
    shorter prefix, evaluated by leaf_groups, or with a generator.  A leaf
    prefix that known lacks is made by the first group that needs it and
    held, on this object, until the last group that needs it is done:
    needs counts, for each held or yet unmade leaf prefix, the groups still
    to come that need it, so no product is made twice."""

    def __init__(
        self,
        fresh: list[AbsMonomial],
        known: dict[AbsMonomial, PackedPoly],
        gens: list[PackedPoly],
        cache: genmat.EvalCache,
    ):
        self.cache = cache
        self.gens = gens
        self.known = known
        self.leaves = _by_last_generator(fresh)
        self.needs: dict[AbsMonomial, int] = {}
        for ms in self.leaves:
            for p in dict.fromkeys(m[:-1] for m in ms):
                if len(p) > 1 and p not in known:
                    self.needs[p] = self.needs.get(p, 0) + 1
        self.held: dict[AbsMonomial, PackedPoly] = {}

    def __iter__(self) -> Iterator[ProductGroup]:
        gens = self.gens

        def prefix(p: AbsMonomial) -> PackedPoly:
            if len(p) == 1:
                return gens[p[0]]
            return self.held[p] if p in self.held else self.known[p]

        try:
            for ms in self.leaves:
                need = [p for p in dict.fromkeys(m[:-1] for m in ms) if p in self.needs]
                todo = [p for p in need if p not in self.held]
                self.held.update(_products(todo, prefix, gens, self.cache))
                group = ProductGroup(ms, [prefix(m[:-1]) for m in ms], gens[ms[0][-1]])
                yield group
                # the caller's loop still holds group while the next is made
                group.prefixes = group.table = None
                for p in need:
                    self.needs[p] -= 1
                    if not self.needs[p]:
                        del self.needs[p], self.held[p]
        finally:
            self.held.clear()


def leaf_groups(
    monos: Iterable[AbsMonomial], gens: list[PackedPoly], cache: genmat.EvalCache
) -> tuple[dict[AbsMonomial, PackedPoly], LeafGroups]:
    """(evals, groups) for distinct monomials, evaluated from gens (see
    eval_abs_monomials).  The fresh leaves are the monomials of two or more
    generators that are no proper prefix of another of the monomials;
    groups yields them one ProductGroup at a time (see LeafGroups).  evals
    maps every other monomial to its evaluation.  Those monomials and the
    proper prefixes of the leaf prefixes, the lower levels of their trie,
    are evaluated here, in one eval_abs_monomials call on the calling
    thread, and groups holds the ones it needs.  No fresh leaf is evaluated
    here: the caller takes the group's products (see
    ProductGroup.products), of the prefixes or of combinations of them,
    and keeps what it needs.  Nothing is kept on the cache."""
    monos = list(monos)
    inner = {m[:n] for m in monos for n in range(2, len(m))}
    fresh = [m for m in monos if len(m) > 1 and m not in inner]
    done = [m for m in monos if len(m) <= 1 or m in inner]
    known = dict.fromkeys(done) | {m[:n]: None for m in fresh for n in range(2, len(m) - 1)}
    known = dict(zip(known, eval_abs_monomials(known, gens, cache)))
    return {m: known[m] for m in done}, LeafGroups(fresh, known, gens, cache)


def predicted_dens(
    monos: Iterable[AbsMonomial], gens: list[PackedPoly]
) -> dict[AbsMonomial, int]:
    """The denominator in lowest terms of the evaluation of each monomial,
    from the contents and denominators of the generator evaluations gens
    alone, before any product is made.  Write ev(g) = c P / d with P an
    integer polynomial of content 1 and gcd(c, d) = 1.  By Gauss's lemma a
    product of polynomials of content 1 has content 1, so the evaluation of
    m is (prod c) (prod P) / (prod d), whose denominator is
    prod d / gcd(prod c, prod d).  A zero generator has content 0, and a
    monomial with a zero factor gets denominator 1."""
    contents = [content(g) for g in gens]
    out = {}
    for m in monos:
        c = d = 1
        for g in m:
            c *= contents[g]
            d *= gens[g].den
        out[m] = d // gcd(c, d)
    return out


# ---------------------------------------------------------------------------
# Hilbert series.


@functools.cache
def hilbert_KG0(D: int) -> tuple[tuple[int, ...], ...]:
    """Hilbert series of the polynomial algebra on the 30 generators,
    bigraded by (x-degree, y-degree), truncated at total degree D: entry
    [p][q], for p + q <= D, is the coefficient of t^p u^q."""
    # Dividing by 1 - t^a u^b in place, in increasing (p, q), multiplies by
    # the geometric series.
    h = [[0] * (D + 1 - p) for p in range(D + 1)]
    h[0][0] = 1
    for g in ABS_GENS:
        a, b = g.bidegree
        for p in range(a, D + 1):
            row, src = h[p], h[p - a]
            for q in range(b, D + 1 - p):
                row[q] += src[q - b]
    return tuple(map(tuple, h))


def hilbert_coeff(lam: Partition) -> int:
    lam = Partition.of(*lam)
    return hilbert_KG0(max(14, lam.total))[lam.l1][lam.l2]


def multiplicity(lam: Partition) -> int:
    """Multiplicity of W(lam) in the generator polynomial algebra:
    h(l1, l2) - h(l1 + 1, l2 - 1)."""
    lam = Partition.of(*lam)
    P = hilbert_coeff(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 > 0 else 0
    return P - Q


@functools.cache
def _reachable(P: int, Q: int) -> list[list[list[bool]]]:
    """reach[g][a][b] for a <= P and b <= Q: is (a, b) a sum of the
    bidegrees of generators g, g + 1, ..., the empty sum included?"""
    reach = [[[a == b == 0 for b in range(Q + 1)] for a in range(P + 1)]]
    for g in reversed(ABS_GENS):
        gp, gq = g.bidegree
        cur = [row[:] for row in reach[-1]]
        for a in range(gp, P + 1):
            for b in range(gq, Q + 1):
                cur[a][b] = cur[a][b] or cur[a - gp][b - gq]
        reach.append(cur)
    reach.reverse()
    return reach


def bidegree_monomials(p: int, q: int) -> list[AbsMonomial]:
    """All generator monomials of bidegree (p, q), for any p, q >= 0, in the
    order of a depth-first walk over the generators.  The walk enters only
    the branches that can still reach (p, q) (see _reachable, one table
    for every bidegree up to (15, 15)), so it visits no dead end."""
    reach = _reachable(max(p, 15), max(q, 15))
    out: list[AbsMonomial] = []

    def recurse(gid: int, p: int, q: int, acc: list[int]) -> None:
        if p == 0 and q == 0:
            out.append(tuple(acc))
            return
        gp, gq = ABS_GENS[gid].bidegree
        if reach[gid + 1][p][q]:
            recurse(gid + 1, p, q, acc)
        if gp <= p and gq <= q and reach[gid][p - gp][q - gq]:
            acc.append(gid)
            recurse(gid, p - gp, q - gq, acc)
            acc.pop()

    if reach[0][p][q]:
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


def catalog_json(cache: genmat.EvalCache) -> dict:
    """The catalog, certified on the cache (see catalog), its generators and
    degree audit."""
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
