"""Defining relations among the generator modules in low degree.

A relation of weight lam is a highest weight vector in the generator algebra
whose image under the substitution into trace expressions evaluates to the
zero polynomial on the generic matrix pair.  relation_space finds all of
them for a given weight: it evaluates the monomial basis of the bidegree
slice, forms the evaluated image of each highest weight basis vector, and
takes the exact kernel of the resulting coefficient matrix.

The analysis layer mirrors the downstream structure results: orbits under
the lowering derivation, reduction modulo the ideal generated by a fixed
homogeneous system of parameters, leading monomials under a fixed precedence
order, and the split of each degree's relations into consequences of lower
degree relations and genuinely new ones.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from . import genmat
from ._lazy import np
from .cache import digest_text
from .glcat import (
    ABS_GENS,
    AbsGen,
    AbsMonomial,
    AbsPoly,
    Partition,
    ProductGroup,
    abs_delta,
    abs_delta1,
    abs_poly_text,
    bidegree_monomials,
    catalog_digest,
    eval_abs_monomial,  # unused here; bench/tracer.py wraps relfinder.eval_abs_monomial
    gen_by_modj,
    in_threads,
    leaf_groups,
    mono_bidegree,
    mono_name,
    phi,
)
from .hwv import HwvBasis, hwv_basis, raising_kernel, span_rank
from .nullspace import QMatrix, null_dense, null_stream
from .packedpoly import XCAP, YCAP, PackedCapacityError, PackedPoly, distinct_keys, product_den
from .polyring import CommPoly, poly_to_text
from .tracelang import TraceExpr, format_trace_expr

LAMBDAS_BY_DEGREE: dict[int, tuple[Partition, ...]] = {
    12: (Partition(7, 5), Partition(6, 6)),
    13: (Partition(8, 5), Partition(7, 6)),
    14: (Partition(9, 5), Partition(8, 6), Partition(7, 7)),
}


# ---------------------------------------------------------------------------
# Parameter split and monomial precedence.


class _ParameterSplitFields(NamedTuple):
    hsop: tuple[AbsGen, ...]
    complement: tuple[AbsGen, ...]


class ParameterSplit(_ParameterSplitFields):
    """A homogeneous system of parameters among the 30 generators and its
    complement.  Every construction, _replace included, checks that the two
    parts partition the generator set."""

    __slots__ = ()

    def __new__(
        cls, hsop: tuple[AbsGen, ...], complement: tuple[AbsGen, ...]
    ) -> "ParameterSplit":
        ids = [g.gid for g in hsop] + [g.gid for g in complement]
        if sorted(ids) != list(range(len(ABS_GENS))):
            raise ValueError("hsop and complement must partition the generators")
        return super().__new__(cls, hsop, complement)

    @classmethod
    def _make(cls, iterable) -> "ParameterSplit":
        return cls(*iterable)


def _build_split() -> ParameterSplit:
    hsop = [g for g in ABS_GENS if g.module <= 4]
    hsop.append(gen_by_modj(6, 0))
    hsop.append(gen_by_modj(6, 2))
    hsop_ids = {g.gid for g in hsop}
    # precedence order on the complement, highest first
    order = [
        (5, 0), (5, 1), (7, 0), (8, 0), (8, 1), (6, 1),
        (9, 0), (9, 1), (9, 2), (10, 0),
        (11, 0), (11, 1), (11, 2), (11, 3), (12, 0),
    ]
    complement = tuple(gen_by_modj(i, j) for i, j in order)
    assert all(g.gid not in hsop_ids for g in complement)
    return ParameterSplit(tuple(hsop), complement)


PARAMETER_SPLIT = _build_split()

_LEAD_RANK: dict[int, int] = {
    g.gid: rank for rank, g in enumerate(PARAMETER_SPLIT.complement)
}


def reduce_hsop(p: AbsPoly) -> AbsPoly:
    """Drop every monomial divisible by an hsop generator."""
    hsop_ids = {g.gid for g in PARAMETER_SPLIT.hsop}
    out = AbsPoly()
    out.terms = {
        m: c for m, c in p.terms.items() if not any(g in hsop_ids for g in m)
    }
    return out


def mono_lead_key(mono: AbsMonomial) -> tuple[int, ...]:
    """Sort key under the complement precedence, extended lexicographically
    to monomials.  Smaller key means greater monomial."""
    return tuple(sorted(_LEAD_RANK[g] for g in mono))


def leading_monomial(p: AbsPoly) -> AbsMonomial | None:
    """Greatest monomial of an hsop-free polynomial, None if zero."""
    if p.is_zero():
        return None
    return min(p.terms, key=mono_lead_key)


# ---------------------------------------------------------------------------
# Relation spaces.


class RelationSpace(NamedTuple):
    """The relations of weight lam: zeta[i] combines the basis vectors into
    relvectors[i].  from_cache tells whether it was read from the store."""

    lam: Partition
    basis: HwvBasis
    zeta: tuple[tuple[Fraction, ...], ...]
    relvectors: tuple[AbsPoly, ...]
    catalog_digest: str  # of the certified catalog the space was computed from
    from_cache: bool = False

    @property
    def r(self) -> int:
        return len(self.relvectors)


# keys added to the sorted union per merge; bounds the array each sort holds
# (2 MB: the leaves of one degree-12 candidate file hold 1.1 M keys)
_UNION_BATCH = 1 << 18


def _sorted_union(key_arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Sorted distinct int64 keys of all arrays, merged a batch at a time."""
    union = np.empty(0, dtype=np.int64)
    batch: list[np.ndarray] = []
    pending = 0
    for keys in key_arrays:
        batch.append(keys)
        pending += len(keys)
        if pending >= _UNION_BATCH:
            union = distinct_keys(np.concatenate([union, *batch]))
            batch, pending = [], 0
    return distinct_keys(np.concatenate([union, *batch]))


class _Columns:
    """The integer matrix M of _assemble_matrix while it is summed, with
    nrows rows and one column per polynomial.  uses[m] holds the (column,
    integer weight) of every column whose polynomial has the monomial m, and
    den[m] the predicted denominator of its evaluation.  M is column-major,
    so that the additions to a column stay in one contiguous block; it turns
    to object dtype once the bound of a column reaches 2^62."""

    def __init__(
        self,
        nrows: int,
        ncols: int,
        uses: dict[AbsMonomial, list[tuple[int, int]]],
        den: dict[AbsMonomial, int],
    ):
        self.M = np.zeros((nrows, ncols), dtype=np.int64, order="F")
        self.bounds = [0] * ncols
        self.uses = uses
        self.den = den
        self.lock = threading.Lock()

    def place(self, m: AbsMonomial, pos: np.ndarray, e: PackedPoly) -> None:
        """Add e = ev(m), whose keys are at the rows pos, scaled into every
        column that uses m."""
        if e.den != self.den[m]:
            raise AssertionError(f"denominator of {mono_name(m)} differs from its prediction")
        with self.lock:
            for i, w in self.uses[m]:
                self.bounds[i] += abs(w) * e.bound
                if self.bounds[i] >= 1 << 62 and self.M.dtype != object:
                    self.M = self.M.astype(object)
            M = self.M
            coeffs = e.coeffs.astype(object) if M.dtype == object and not e.is_big() else e.coeffs
            # M is column-major, so M[:, i] is a contiguous view
            for i, w in self.uses[m]:
                np.add.at(M[:, i], pos, coeffs * w)


def _assemble_matrix(
    polys: Sequence[AbsPoly], cache: genmat.EvalCache | None
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The one evaluator of generator polynomials.

    Returns (M, colscale, keys): M has one integer column per polynomial and
    one row per packed key of the 18-variable evaluation, ascending, at which
    some column is nonzero.  Column i divided by colscale[i] is the
    evaluation of phi(polys[i]), summed from generator-monomial evaluations;
    phi is never expanded.  Each evaluation is placed once and added, scaled,
    into every column that uses it (see _Columns.place).  A monomial already
    evaluated is placed by a search of its keys.  The fresh leaves are
    multiplied here, one glcat.ProductGroup at a time on the machine's cores
    (see glcat.in_threads), and each is placed through the positions of its
    group's key sums among the rows, with no search.  A fresh leaf is never
    memoized: it dies as soon as it is placed, so at most one leaf per
    thread is alive beside M.  Its proper prefixes stay memoized on the
    cache.  M has object dtype when the bound of some column reaches 2^62,
    else int64.  A monomial whose bidegree exceeds the packed fields raises
    PackedCapacityError before anything is evaluated.

    The cache works on one weight at a time (see genmat.WeightSlot), keyed
    on the set of bidegrees of the monomials of polys, which need not be
    homogeneous.  The result stays on the slot until the next call, which
    gets it back if its polynomials have the same terms: hwv_verify and the
    relation_space of the same basis assemble once, and verify_zero_abs
    evaluates a polynomial in the span of the slot's from its M.  A call
    with other polynomials frees the slot's matrix before it builds its own.
    Callers only read M.
    """
    cache = cache or genmat.default_cache()
    terms = [dict(v.terms) for v in polys]
    used = dict.fromkeys(m for t in terms for m in t)
    bidegrees = frozenset(map(mono_bidegree, used))
    for p, q in bidegrees:
        if p > XCAP or q > YCAP:
            raise PackedCapacityError(
                f"monomial bidegree ({p},{q}) exceeds packed capacity ({XCAP},{YCAP})"
            )
    with cache._lock:
        slot = cache._weight
        if slot.last is not None and slot.last[0] == terms:
            return slot.last[1]
        # a matrix of other polynomials is freed before this one is built
        slot = cache._weight = genmat.WeightSlot(bidegrees)
    evals, groups = leaf_groups(used, cache)
    # every denominator is known before the fresh leaves are multiplied
    den = {m: e.den for m, e in evals.items()}
    for grp in groups:
        den.update((m, product_den(p, grp.gen)) for m, p in zip(grp.monos, grp.prefixes))
    all_keys = _sorted_union(
        [*(e.keys for e in evals.values()), *(grp.table.sums for grp in groups)]
    )
    # uses[m]: (column, integer weight) of every column whose polynomial has m
    uses: dict[AbsMonomial, list[tuple[int, int]]] = {m: [] for m in used}
    colscale: list[int] = []
    for i, v in enumerate(polys):
        L = lcm(*(c.denominator for c in v.terms.values()))
        D = lcm(*(den[m] for m in v.terms))
        for m, c in v.terms.items():
            uses[m].append((i, c.numerator * (L // c.denominator) * (D // den[m])))
        colscale.append(L * D)
    cols = _Columns(len(all_keys), len(polys), uses, den)
    for m, e in evals.items():
        cols.place(m, np.searchsorted(all_keys, e.keys), e)

    def fill(grp: ProductGroup) -> None:
        at = np.searchsorted(all_keys, grp.table.sums)
        for m, pos, e in grp.products(cache):
            cols.place(m, at[pos], e)

    in_threads(groups, ProductGroup.volume, fill)
    M = cols.M
    rows = np.flatnonzero(M.any(axis=1))
    # the nonzero rows move up in place, one contiguous column at a time
    for col in M.T:
        col[: len(rows)] = col[rows]
    slot.last = terms, (M[: len(rows)], colscale, all_keys[rows])
    return slot.last[1]


def _relation_vector(zeta: Sequence[Fraction], vectors: Sequence[AbsPoly]) -> AbsPoly:
    """The combination sum_i zeta_i * vectors_i."""
    v = AbsPoly()
    for zi, bv in zip(zeta, vectors):
        if zi:
            v = v + bv.scale(zi)
    return v


def _space_digest(relvectors) -> str:
    text = "|".join(abs_poly_text(v) for v in relvectors)
    return digest_text(text)


# version of the stored relation-space summary; a summary whose basis order or
# fields may differ must not be read under the same key
RELSPACE_SCHEMA = 2


def relation_space(
    lam: Partition,
    mode: str = "modular",
    cache: genmat.EvalCache | None = None,
    threads: int = 1,
    use_cache: bool = True,
) -> RelationSpace:
    """All relations of weight lam, as exact highest weight combinations."""
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = Partition.of(*lam)
    cache = cache or genmat.default_cache()
    store = cache.store
    digest = catalog_digest(cache)
    key = f"relspace:v{RELSPACE_SCHEMA}:{lam.l1},{lam.l2}:{digest}"
    if use_cache and store is not None:
        summary = store.get_json(key)
        if isinstance(summary, dict):
            loaded = _load_space(lam, summary, digest, threads, cache)
            if loaded is not None:
                return loaded
    basis = hwv_basis(lam, threads=threads, cache=cache)
    M, colscale, _ = _assemble_matrix(basis.vectors, cache)
    nb = null_stream([M], basis.s, mode=mode)
    zeta = []
    relvectors = []
    for w in nb.vectors:
        z = [wi * sc for wi, sc in zip(w, colscale)]
        lead = next((x for x in z if x), None)
        if lead is not None and lead != 1:
            z = [x / lead for x in z]
        zeta.append(tuple(z))
        v = _relation_vector(z, basis.vectors)
        if not abs_delta(v).is_zero():
            raise AssertionError("relation vector is not a highest weight vector")
        if not v.is_zero() and v.bidegree() != (lam.l1, lam.l2):
            raise AssertionError("relation vector has wrong bidegree")
        relvectors.append(v)
    space = RelationSpace(lam, basis, tuple(zeta), tuple(relvectors), digest)
    if store is not None:
        store.put_json(
            key,
            {
                "lambda": [lam.l1, lam.l2],
                "zeta": [
                    [f"{x.numerator}/{x.denominator}" for x in z] for z in space.zeta
                ],
                "digest": _space_digest(space.relvectors),
            },
        )
    return space


def _load_space(
    lam: Partition, summary: dict, catalog: str, threads: int, cache: genmat.EvalCache
) -> RelationSpace | None:
    try:
        zeta = tuple(
            tuple(Fraction(x) for x in z) for z in summary["zeta"]
        )
        digest = summary["digest"]
    except (KeyError, ValueError, TypeError):
        return None
    basis = hwv_basis(lam, threads=threads, cache=cache)
    if any(len(z) != basis.s for z in zeta):
        return None
    relvectors = tuple(_relation_vector(z, basis.vectors) for z in zeta)
    if _space_digest(relvectors) != digest:
        return None
    return RelationSpace(lam, basis, zeta, relvectors, catalog, from_cache=True)


# ---------------------------------------------------------------------------
# Verification and membership.


class ZeroReport(NamedTuple):
    """Whether an evaluation is zero, with a capped sample and a digest of
    its residual."""

    zero: bool
    residual_terms: int
    residual_sample: tuple[tuple[str, str], ...]
    digest: str

    SAMPLE_CAP = 10

    @classmethod
    def of(cls, residual: CommPoly) -> "ZeroReport":
        """Summary of a residual: zero or not, its term count, the first
        SAMPLE_CAP terms in canonical order, and a digest of its text."""
        sample = tuple(
            (" ".join(str(x) for x in m), f"{c.numerator}/{c.denominator}")
            for m, c in residual.sorted_terms()[: cls.SAMPLE_CAP]
        )
        return cls(
            residual.is_zero(),
            len(residual.terms),
            sample,
            digest_text(poly_to_text(residual)),
        )


def verify_zero(e: TraceExpr, cache: genmat.EvalCache | None = None) -> ZeroReport:
    """Evaluate a trace expression and report whether it is identically
    zero; a nonzero residual is summarized monomial by monomial, capped."""
    return ZeroReport.of(genmat.eval_trace_expr(e, cache))


def verify_zero_abs(p: AbsPoly, cache: genmat.EvalCache | None = None) -> ZeroReport:
    """Same as verify_zero but straight from an AbsPoly.  When p lies in the
    span of the polynomials whose matrix the cache's weight slot holds, its
    evaluation is that combination of the columns (see _eval_from_slot), and
    nothing is multiplied.  Any other p is evaluated as the one column of
    the matrix _assemble_matrix builds for it."""
    cache = cache or genmat.default_cache()
    ev = _eval_from_slot(p, cache)
    if ev is None:
        M, colscale, keys = _assemble_matrix([p], cache)
        ev = PackedPoly.from_column(keys, M[:, 0], colscale[0])
    return ZeroReport.of(ev.to_comm(genmat.VARSET18))


def _eval_from_slot(p: AbsPoly, cache: genmat.EvalCache) -> PackedPoly | None:
    """ev(p) from the matrix M on the cache's weight slot, or None unless
    the slot holds M for the bidegree set of p and p is a combination
    sum_i a_i v_i of the slot's polynomials v_i.  The a_i come from an exact
    kernel, and p == sum_i a_i v_i is checked again term by term before
    they are used.  By linearity ev(p) = sum_i a_i M[:, i] / colscale[i],
    summed over the columns with a_i != 0 only: in int64 while the bound of
    the sum stays below 2^62, else in object dtype one column at a time, so
    M is never cast as a whole."""
    with cache._lock:
        slot = cache._weight
    if slot.last is None or slot.bidegrees != frozenset(map(mono_bidegree, p.terms)):
        return None
    terms, (M, colscale, keys) = slot.last
    # one row per monomial of the slot's polynomials, one column per
    # polynomial, and p in the last column
    rows: dict[AbsMonomial, dict[int, Fraction]] = {}
    for i, t in enumerate(terms):
        for m, c in t.items():
            rows.setdefault(m, {})[i] = c
    if any(m not in rows for m in p.terms):
        return None
    n = len(terms)
    for m, c in p.terms.items():
        rows[m][n] = c
    kernel = null_dense(QMatrix(tuple(rows.values()), n + 1))
    z = next((v for v in kernel.vectors if v[n]), None)
    if z is None:
        return None
    a = [-x / z[n] for x in z[:n]]
    combo: dict[AbsMonomial, Fraction] = {}
    for ai, t in zip(a, terms):
        if ai:
            for m, c in t.items():
                combo[m] = combo.get(m, 0) + ai * c
    if {m: c for m, c in combo.items() if c} != p.terms:
        return None
    # ev(p) = column / den, with integer weights on the columns it touches
    scaled = [(i, ai / colscale[i]) for i, ai in enumerate(a) if ai]
    den = lcm(*(r.denominator for _, r in scaled))
    weighted = []
    bound = 0
    for i, r in scaled:
        top = int(np.abs(M[:, i]).max(initial=0))
        if top:  # a zero column adds nothing, however large its weight
            w = r.numerator * (den // r.denominator)
            weighted.append((M[:, i], w))
            bound += abs(w) * top
    dtype = np.int64 if M.dtype != object and bound < 1 << 62 else object
    column = np.zeros(len(keys), dtype=dtype)
    for col, w in weighted:
        column += col.astype(dtype, copy=False) * w
    return PackedPoly.from_column(keys, column, den)


def membership(candidate: AbsPoly, space: RelationSpace) -> bool:
    """Is the candidate in the rational span of the relation vectors?

    The candidate must be homogeneous of the space's bidegree; anything else
    is a usage error, not a False.
    """
    if candidate.is_zero():
        return True
    if candidate.bidegree() != (space.lam.l1, space.lam.l2):
        raise ValueError(
            f"candidate bidegree {candidate.bidegree()} does not match "
            f"the space weight {tuple(space.lam)}"
        )
    rels = list(space.relvectors)
    return span_rank(rels + [candidate]) == span_rank(rels)


# ---------------------------------------------------------------------------
# Orbits and leading monomials.


def orbit(space: RelationSpace) -> tuple[AbsPoly, ...]:
    """Ladder orbit of every relation vector: for each one the vectors
    e_j = delta1^j(v) / (a (a-1) ... (a-j+1)) for j = 0 .. a."""
    a = space.lam.l1 - space.lam.l2
    out: list[AbsPoly] = []
    for v in space.relvectors:
        cur = v
        out.append(cur)
        for j in range(1, a + 1):
            cur = abs_delta1(cur).scale(Fraction(1, a - j + 1))
            if cur.is_zero():
                raise AssertionError("orbit vector vanished before the ladder end")
            out.append(cur)
    return tuple(out)


class LeadingEntry(NamedTuple):
    """One staircase monomial and the orbit vector it leads."""

    bidegree: tuple[int, int]
    monomial: AbsMonomial
    name: str
    source_lambda: Partition
    source_vector: int
    orbit_j: int


class LeadingReport(NamedTuple):
    """The staircase of leading_analysis and the orbit vectors it absorbed."""

    entries: tuple[LeadingEntry, ...]
    absorbed: tuple[tuple[Partition, int, int], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)


def leading_analysis(
    spaces: RelationSpace | Sequence[RelationSpace],
) -> LeadingReport:
    """Leading monomials of the orbit vectors modulo the hsop ideal.

    Orbit vectors are processed in a fixed order (spaces as given, relation
    vectors in basis order, ladder position ascending).  Each vector is
    reduced modulo the hsop ideal and then against the previously recorded
    vectors of the same bidegree before its greatest monomial is recorded,
    so the result is a staircase of distinct leading monomials.  Vectors
    absorbed to zero by earlier ones are reported separately.
    """
    if isinstance(spaces, RelationSpace):
        spaces = [spaces]
    entries: list[LeadingEntry] = []
    absorbed: list[tuple[Partition, int, int]] = []
    pivots: dict[tuple[int, int], list[tuple[AbsMonomial, AbsPoly]]] = {}
    for space in spaces:
        a = space.lam.l1 - space.lam.l2
        orbs = orbit(space)
        for flat, vec in enumerate(orbs):
            vi, j = divmod(flat, a + 1)
            beta = vec.bidegree()
            red = reduce_hsop(vec)
            stair = pivots.setdefault(beta, [])
            while not red.is_zero():
                lead = leading_monomial(red)
                hit = next((pv for pm, pv in stair if pm == lead), None)
                if hit is None:
                    break
                red = red - hit.scale(red.terms[lead] / hit.terms[lead])
            if red.is_zero():
                absorbed.append((space.lam, vi, j))
                continue
            lead = leading_monomial(red)
            stair.append((lead, red))
            entries.append(
                LeadingEntry(beta, lead, mono_name(lead), space.lam, vi, j)
            )
    return LeadingReport(tuple(entries), tuple(absorbed))


# ---------------------------------------------------------------------------
# New relations by degree.


class NewRelationsItem(NamedTuple):
    """The r relations of weight lam split into old and new."""

    lam: Partition
    r: int
    old: int
    new: int


class NewRelationsReport(NamedTuple):
    """The old/new split of the relations of one degree."""

    degree: int
    items: tuple[NewRelationsItem, ...]

    @property
    def decomposition(self) -> str:
        parts = []
        for it in self.items:
            if it.new == 0:
                continue
            w = f"W({it.lam.l1},{it.lam.l2})"
            parts.append(w if it.new == 1 else f"{it.new}*{w}")
        return " + ".join(parts) if parts else "0"


def _old_multiplicity(products: list[AbsPoly]) -> int:
    """Dimension of the highest weight space inside the span of the given
    vectors, all of one bidegree."""
    kernel = raising_kernel(products)
    return span_rank(_relation_vector(k, products) for k in kernel.vectors)


def new_relations(
    degree: int,
    mode: str = "modular",
    cache: genmat.EvalCache | None = None,
    threads: int = 1,
) -> NewRelationsReport:
    """Split the weight multiplicities of degree-d relations into
    consequences of lower degree relations and new ones."""
    if degree not in LAMBDAS_BY_DEGREE:
        raise ValueError(f"no relation data for degree {degree}")
    lower_orbits: list[AbsPoly] = []
    for d in sorted(LAMBDAS_BY_DEGREE):
        if d >= degree:
            break
        for lam in LAMBDAS_BY_DEGREE[d]:
            space = relation_space(lam, mode=mode, cache=cache, threads=threads)
            lower_orbits.extend(orbit(space))
    items = []
    for lam in LAMBDAS_BY_DEGREE[degree]:
        space = relation_space(lam, mode=mode, cache=cache, threads=threads)
        products: list[AbsPoly] = []
        for w in lower_orbits:
            beta = w.bidegree()
            rem = (lam.l1 - beta[0], lam.l2 - beta[1])
            if rem[0] < 0 or rem[1] < 0 or rem == (0, 0):
                continue
            for m in sorted(bidegree_monomials(*rem), key=lambda m: (len(m), m)):
                products.append(w * AbsPoly.monomial(m))
        old = _old_multiplicity(products)
        items.append(NewRelationsItem(lam, space.r, old, space.r - old))
    return NewRelationsReport(degree, tuple(items))


# ---------------------------------------------------------------------------
# Certificates.


class RelationCertificate(NamedTuple):
    """The stored evidence for one relation vector (see to_json)."""

    lam: Partition
    index: int
    zeta: tuple[str, ...]
    abspoly: tuple[tuple[tuple[tuple[int, int], ...], str], ...]
    trace_form: str
    leading: str | None
    digest: str

    def to_json(self) -> dict:
        return {
            "lambda": [self.lam.l1, self.lam.l2],
            "index": self.index,
            "zeta": list(self.zeta),
            "abspoly": [
                {"monomial": [list(p) for p in mono], "coeff": c}
                for mono, c in self.abspoly
            ],
            "trace_form": self.trace_form,
            "leading": self.leading,
            "evaluation_digest": self.digest,
        }


def build_certificate(space: RelationSpace, index: int) -> RelationCertificate:
    v = space.relvectors[index]
    red = reduce_hsop(v)
    lead = leading_monomial(red)
    abspoly = tuple(
        (
            tuple((ABS_GENS[g].module, ABS_GENS[g].j) for g in mono),
            f"{c.numerator}/{c.denominator}",
        )
        for mono, c in v.sorted_terms()
    )
    claim = (
        f"relation;{space.lam.l1},{space.lam.l2};{abs_poly_text(v)};residual=0"
    )
    return RelationCertificate(
        space.lam,
        index,
        tuple(
            f"{x.numerator}/{x.denominator}" for x in space.zeta[index]
        ),
        abspoly,
        format_trace_expr(phi(v)),
        mono_name(lead) if lead is not None else None,
        digest_text(claim),
    )


def write_certificates(space: RelationSpace, store) -> list[str]:
    """Store one JSON certificate per relation vector; returns cache keys.

    A key holds everything its certificate is built from: the weight, the
    index, the catalog digest, RELSPACE_SCHEMA and a digest of the zeta and
    relation vectors.  A certificate is built and written only when its key
    misses."""
    lam = space.lam
    keys = []
    for i, (z, v) in enumerate(zip(space.zeta, space.relvectors)):
        zeta = ",".join(f"{x.numerator}/{x.denominator}" for x in z)
        content = digest_text(f"{zeta};{abs_poly_text(v)}")
        key = (
            f"relcert:v1:{lam.l1},{lam.l2}:{i}:{space.catalog_digest}:"
            f"{RELSPACE_SCHEMA}:{content}"
        )
        if not isinstance(store.get_json(key), dict):
            store.put_json(key, build_certificate(space, i).to_json())
        keys.append(key)
    return keys
