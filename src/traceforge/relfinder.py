"""Defining relations among the generator modules in low degree.

A relation of weight lam is a highest weight vector in the generator algebra
whose image under the substitution into trace expressions evaluates to the
zero polynomial on the generic matrix pair.  relation_space finds all of
them for a given weight, as the kernel of the evaluation map on the highest
weight basis.  The one prime loop, nullspace.modular_kernel, takes it from
the values of the basis vectors at fixed integer points mod p, which bound
the relation count r from above.  The characters of the symmetric group
bound r from below by m - c0 (see glcat.c0), so where the two bounds meet
the relations are exactly the kernel of the values at those points, and
each relation vector is proven by its values at the points, mod enough
primes to exceed a bound on them (see _proven_at_points).  No symbolic
product is made.  The basis is only the tool that finds the relations: a
relation space is its relation vectors, and the store keeps them, so a
stored space is read back without solving a basis.

The analysis layer mirrors the downstream structure results: orbits under
the lowering derivation, reduction modulo the ideal generated by a fixed
homogeneous system of parameters, leading monomials under a fixed precedence
order, and the split of each degree's relations into consequences of lower
degree relations and genuinely new ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
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
    _gen_evals,
    abs_delta,
    abs_delta1,
    abs_poly_text,
    bidegree_monomials,
    c0,
    catalog,
    catalog_digest,
    eval_abs_monomial,  # unused here; bench/tracer.py wraps relfinder.eval_abs_monomial
    gen_by_modj,
    gen_values,
    leaf_groups,
    mono_bidegree,
    mono_name,
    multiplicity,
    phi,
    predicted_dens,
)
from .hwv import HwvBasis, hwv_basis, raising_kernel, span_rank
from .nullspace import PRIMES, NullStreamError, _rref_mod, modular_kernel
from .packedpoly import (
    XCAP,
    YCAP,
    PackedCapacityError,
    PackedPoly,
    distinct_keys,
    sum_scaled,
)
from .polyring import CommPoly, combination, poly_to_text
from .tracelang import NotHomogeneous, TraceExpr, format_trace_expr

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


_HSOP_IDS = frozenset(g.gid for g in PARAMETER_SPLIT.hsop)


def reduce_hsop(p: AbsPoly) -> AbsPoly:
    """Drop every monomial divisible by an hsop generator."""
    return AbsPoly._of(
        {m: c for m, c in p.nums.items() if not any(g in _HSOP_IDS for g in m)}, p.den
    )


def mono_lead_key(mono: AbsMonomial) -> tuple[int, ...]:
    """Sort key under the complement precedence, extended lexicographically
    to monomials.  Smaller key means greater monomial."""
    return tuple(sorted(_LEAD_RANK[g] for g in mono))


def leading_monomial(p: AbsPoly) -> AbsMonomial | None:
    """Greatest monomial of an hsop-free polynomial, None if zero."""
    if p.is_zero():
        return None
    return min(p.nums, key=mono_lead_key)


# ---------------------------------------------------------------------------
# Relation spaces.


class RelationSpace(NamedTuple):
    """The relations of weight lam: zeta[i] combines the vectors of
    hwv_basis(lam), in its order, into relvectors[i].  from_cache tells
    whether it was read from the store."""

    lam: Partition
    zeta: tuple[tuple[Fraction, ...], ...]
    relvectors: tuple[AbsPoly, ...]
    catalog_digest: str  # of the certified catalog the space was computed from
    from_cache: bool = False

    @property
    def r(self) -> int:
        return len(self.relvectors)


class _Columns:
    """The integer matrix M of _assemble_matrix while it is summed, with one
    column per polynomial and one row per packed key, added as the keys
    arrive (see rows).  uses[m] holds the (column, integer weight) of every
    column whose polynomial has the monomial m, and den[m] the predicted
    denominator of its evaluation.  M is row-major, so that new rows extend
    its buffer in place; it turns to object dtype once the bound of a
    column reaches 2^62."""

    def __init__(
        self,
        ncols: int,
        uses: dict[AbsMonomial, list[tuple[int, int]]],
        den: dict[AbsMonomial, int],
    ):
        self.M = np.zeros((0, ncols), dtype=np.int64)
        self.bounds = [0] * ncols
        self.uses = uses
        self.den = den
        # the keys of the rows, ascending, and the row of each
        self.keys = np.empty(0, dtype=np.int64)
        self.order = np.empty(0, dtype=np.intp)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The rows of keys, which are strictly ascending.  A key without a
        row gets a new one, at the end of M."""
        at = np.searchsorted(self.keys, keys)
        known = at < len(self.keys)
        known[known] = self.keys[at[known]] == keys[known]
        rows = np.empty(len(keys), dtype=np.intp)
        rows[known] = self.order[at[known]]
        new = np.flatnonzero(~known)
        if len(new):
            rows[new] = np.arange(len(self.keys), len(self.keys) + len(new))
            # both runs are sorted, so the stable sort merges them
            merged = np.concatenate([self.keys, keys[new]])
            order = np.argsort(merged, kind="stable")
            self.keys = merged[order]
            self.order = np.concatenate([self.order, rows[new]])[order]
            # the new rows are zero; a large buffer grows without a copy
            self.M.resize((len(self.keys), self.M.shape[1]), refcheck=False)
        return rows

    def place(self, m: AbsMonomial, rows: np.ndarray, e: PackedPoly) -> None:
        """Add e = ev(m), whose keys are at rows, scaled into every column
        that uses m."""
        if e.den != self.den[m]:
            raise AssertionError(f"denominator of {mono_name(m)} differs from its prediction")
        self.add(self.uses[m], rows, e)

    def add(self, uses: list[tuple[int, int]], rows: np.ndarray, e: PackedPoly) -> None:
        """Add w times the integer coefficients of e, whose keys are at
        rows, into column i for every (i, w) of uses."""
        for i, w in uses:
            self.bounds[i] += abs(w) * e.bound
            if self.bounds[i] >= 1 << 62 and self.M.dtype != object:
                self.M = self.M.astype(object)
        M = self.M
        coeffs = e.coeffs.astype(object) if M.dtype == object and not e.is_big() else e.coeffs
        for i, w in uses:
            # the keys of e are strictly ascending and their rows distinct,
            # so rows never repeats and plain indexing adds each term once
            M[rows, i] += coeffs * w

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, keys): the rows at which some column is nonzero, in ascending
        order of their keys, and those keys.  The rows move up in place,
        one column at a time."""
        M = self.M
        keep = M.any(axis=1)[self.order]
        rows = self.order[keep]
        for col in M.T:
            col[: len(rows)] = col[rows]
        return M[: len(rows)], self.keys[keep]


def _assemble_matrix(
    polys: Sequence[AbsPoly], gens: list[PackedPoly], cache: genmat.EvalCache
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The one evaluator of generator polynomials.  Its caller,
    evaluate_abs, passes one candidate and the evaluations gens of the 30
    generators.

    Returns (M, colscale, keys): M has one integer column per polynomial and
    one row per packed key of the 18-variable evaluation, ascending, at which
    some column is nonzero.  Column i divided by colscale[i] is the
    evaluation of phi(polys[i]), summed from generator-monomial evaluations;
    phi is never expanded.  The denominator of every monomial's evaluation
    is predicted first, from the contents and denominators of the
    generators (see glcat.predicted_dens), so the column scales are known
    before any product is made, and each product is checked against its
    prediction.  A monomial that is a proper prefix of another, or has
    fewer than two generators, is evaluated first (see glcat.leaf_groups),
    placed once, by a search of its keys, and added, scaled, into every
    column that uses it (see _Columns.place).  The fresh leaves are multiplied here, one
    glcat.ProductGroup (the leaves that end in one generator g) after
    another on the calling thread, in whichever association order needs
    fewer products (see _place_group).  A group's prefixes and table are
    made when it is reached and die with it (see glcat.LeafGroups), and
    the rows of M grow as each group's key sums arrive (see _Columns.rows):
    they are put in key order once, at the end.  A product dies as soon as
    it is placed, and at most one product, and one combination of
    prefixes, is alive beside M.  Each product is made once per call, from
    gens, and none outlives the call: the cache only counts them in
    stats.gen_products.  M has object dtype when the bound of some column
    reaches 2^62, else int64.  The polys need not be homogeneous.  A
    monomial whose bidegree exceeds the packed fields raises
    PackedCapacityError before any product is made (see _check_packed).  M
    lives as long as its caller holds it.
    """
    _check_packed(polys)
    used = dict.fromkeys(m for v in polys for m in v.nums)
    den = predicted_dens(used, gens)
    # uses[m]: (column, integer weight) of every column whose polynomial has
    # m; v = nums / v.den, so column i is v.den * D times ev(v)
    uses: dict[AbsMonomial, list[tuple[int, int]]] = {m: [] for m in used}
    colscale: list[int] = []
    for i, v in enumerate(polys):
        D = lcm(*(den[m] for m in v.nums))
        for m, c in v.nums.items():
            uses[m].append((i, c * (D // den[m])))
        colscale.append(v.den * D)
    cols = _Columns(len(polys), uses, den)
    evals, groups = leaf_groups(used, gens, cache)
    if evals:
        _place_evals(cols, evals)
    for grp in groups:
        _place_group(cols, grp, cache)
    M, keys = cols.matrix()
    return M, colscale, keys


def _check_packed(polys: Iterable[AbsPoly]) -> None:
    """PackedCapacityError if the bidegree of a monomial of the polys
    exceeds the packed fields."""
    for p, q in {mono_bidegree(m) for v in polys for m in v.nums}:
        _check_bidegree(p, q)


def _check_bidegree(p: int, q: int) -> None:
    """PackedCapacityError if a monomial of bidegree (p, q) exceeds the
    packed fields."""
    if p > XCAP or q > YCAP:
        raise PackedCapacityError(
            f"monomial bidegree ({p},{q}) exceeds packed capacity ({XCAP},{YCAP})"
        )


def _place_evals(cols: _Columns, evals: dict[AbsMonomial, PackedPoly]) -> None:
    """Place the monomials already evaluated, through the sorted union of
    their keys."""
    keys = distinct_keys(np.concatenate([e.keys for e in evals.values()]))
    rows = cols.rows(keys)
    for m, e in evals.items():
        cols.place(m, rows[np.searchsorted(keys, e.keys)], e)


def _place_group(cols: _Columns, grp: ProductGroup, cache: genmat.EvalCache) -> None:
    """Add the products of one group of fresh leaves into the columns.

    When the group feeds fewer columns than it has leaves, the part of
    column i it gives is sum_m w_im ev(m) = F_i ev(g), where
    F_i = sum_m w_im den[m] ev(m[:-1]) combines the prefixes exactly (see
    packedpoly.sum_scaled): one product per column, whose integer
    coefficients are added into that column alone and must be integral.
    Otherwise each leaf is one product, added, scaled, into every column
    that uses it.  Either way a product is placed through the rows of its
    group's key sums, with no search."""
    rows = cols.rows(grp.table.sums)
    # combination[i]: (prefix, w_im den[m]) of every leaf m of column i
    combination: dict[int, list[tuple[PackedPoly, int]]] = {}
    for m, p in zip(grp.monos, grp.prefixes):
        for i, w in cols.uses[m]:
            combination.setdefault(i, []).append((p, w * cols.den[m]))
    if len(combination) < len(grp.monos):
        combined = (sum_scaled(pairs) for pairs in combination.values())
        for (pos, e), i in zip(grp.products(cache, combined), combination):
            if e.den != 1:
                raise AssertionError(
                    f"column {i} of the leaves that end in "
                    f"{mono_name(grp.monos[0][-1:])} is not integral"
                )
            cols.add([(i, 1)], rows[pos], e)
    else:
        for (pos, e), m in zip(grp.products(cache, grp.prefixes), grp.monos):
            cols.place(m, rows[pos], e)


def _relation_vector(zeta: Sequence[Fraction | int], vectors: Sequence[AbsPoly]) -> AbsPoly:
    """The combination sum_i zeta_i * vectors_i, summed over one common
    denominator."""
    return AbsPoly._of(*combination(zip(zeta, vectors)))


def _are_highest_weight_vectors(lam: Partition, vectors: Iterable[AbsPoly]) -> bool:
    """Is every vector a highest weight vector of weight lam: killed by
    abs_delta, with every monomial of bidegree lam?  Solved and stored
    relation vectors alike must pass."""
    return all(
        abs_delta(v).is_zero()
        and all(mono_bidegree(m) == (lam.l1, lam.l2) for m in v.nums)
        for v in vectors
    )


def _check_highest_weight(lam: Partition, vectors: Sequence[AbsPoly]) -> None:
    """AssertionError unless _are_highest_weight_vectors(lam, vectors)."""
    if not _are_highest_weight_vectors(lam, vectors):
        raise AssertionError(
            f"a relation vector is not a highest weight vector of bidegree ({lam.l1},{lam.l2})"
        )


# version of the stored relation-space summary; a summary whose fields may
# differ must not be read under the same key.  Its zeta index the vectors of
# hwv_basis in their order, which loading does not check (a stored space is
# read without a basis): bump it whenever that order changes, or
# test_stored_zeta_follow_the_basis_order fails.
RELSPACE_SCHEMA = 3


def _check_mode(mode: str) -> None:
    """ValueError unless mode is "modular", the one route; the parameter
    stays only because the benchmark in bench/ passes it."""
    if mode != "modular":
        raise ValueError(f"unknown mode {mode!r}")


def relation_space(
    lam: Partition,
    mode: str = "modular",
    *,
    cache: genmat.EvalCache,
    threads: int = 1,
) -> RelationSpace:
    """All relations of weight lam: zeta[i] combines the highest weight
    basis into the relation vector relvectors[i], and the zeta are the
    kernel of the evaluation map on the basis in free-column form, each
    normalized so its first nonzero coordinate is 1.  The space the cache
    already holds for lam is returned as it is, before the store is read;
    else a space the store holds is read back with no basis (see
    _load_space); one it lacks, or one that fails its checks there, is
    solved and stored again.  Either way the cache then holds the space
    (see verify_zero_abs).  cache.stats counts the spaces solved and the
    spaces read from the store.

    The catalog is certified on the cache first (see glcat.catalog).  The
    kernel is found from the values of the basis at integer points mod p,
    and proven to be the whole relation space by the count m - c0 and by
    the values of its relation vectors at the points (see _modular_zeta);
    no polynomial is evaluated.  Where the prime loop fails,
    NullStreamError names the weight.  A weight beyond the packed fields
    raises PackedCapacityError before any work, since a candidate of that
    bidegree could not be evaluated (see evaluate_abs).  mode must be
    "modular" (ValueError otherwise, before any work), and threads is
    ignored: both stay only because the benchmark in bench/ passes
    them."""
    _check_mode(mode)
    lam = Partition.of(*lam)
    _check_bidegree(lam.l1, lam.l2)
    catalog(cache)
    store = cache.store
    digest = catalog_digest()
    key = f"relspace:v{RELSPACE_SCHEMA}:{lam.l1},{lam.l2}:{digest}"
    held = cache._spaces.get(lam)
    if held is not None:
        return held
    summary = store.get_json(key) if store is not None else None
    if isinstance(summary, dict):
        loaded = _load_space(lam, summary, digest)
        if loaded is not None:
            with cache._lock:
                cache.stats.spaces_loaded += 1
            return _held(loaded, cache)
    zeta, relvectors = _modular_zeta(hwv_basis(lam, cache=cache), cache)
    space = RelationSpace(lam, tuple(zeta), relvectors, digest)
    with cache._lock:
        cache.stats.spaces_solved += 1
    if store is not None:
        store.put_json(
            key,
            {
                "lambda": [lam.l1, lam.l2],
                "zeta": [
                    [f"{x.numerator}/{x.denominator}" for x in z] for z in space.zeta
                ],
                "relvectors": [
                    [[list(m), c] for m, c in v.text_terms()]
                    for v in relvectors
                ],
            },
        )
    return _held(space, cache)


def _held(space: RelationSpace, cache: genmat.EvalCache) -> RelationSpace:
    """The space, kept on the cache under its weight for verify_zero_abs.
    Every relation vector was proven a relation before it was stored, and
    a stored one passes the checks of _load_space, so every member of the
    space is zero."""
    with cache._lock:
        cache._spaces[space.lam] = space
    return space


# points beyond the s columns of the values of a basis at the first prime;
# every further pair of primes is given this many more
_EXTRA_POINTS = 16


class _PointValues:
    """The values mod p of polynomials at points: the values of their
    monomials, products of generator values (see glcat.gen_values), times
    their coefficients mod p."""

    def __init__(self, vectors: Sequence[AbsPoly]):
        self.vectors = tuple(vectors)
        # the monomials, longest first
        monos = dict.fromkeys(m for v in self.vectors for m in v.nums)
        monos = sorted(monos, key=len, reverse=True)
        index = {m: k for k, m in enumerate(monos)}
        # row k: the generators of monomial k, padded; counts[j]: the
        # monomials of more than j generators, the first rows
        width = len(monos[0]) if monos else 0
        self.gids = np.zeros((len(monos), width), dtype=np.int64)
        for k, m in enumerate(monos):
            self.gids[k, : len(m)] = m
        self.counts = [sum(len(m) > j for m in monos) for j in range(width)]
        # the coefficient of monomial cols[t] in vector rows[t] is
        # nums[t] / dens[t]
        at = [(i, index[m]) for i, v in enumerate(self.vectors) for m in v.nums]
        self.rows = np.array([i for i, _ in at], dtype=np.int64)
        self.cols = np.array([k for _, k in at], dtype=np.int64)
        self.nums = [c for v in self.vectors for c in v.nums.values()]
        self.dens = [v.den for v in self.vectors for _ in v.nums]

    def __call__(self, p: int, n: int, cache: genmat.EvalCache) -> np.ndarray | None:
        """The values at the first n points mod p, an (n, len(vectors))
        int64 array, or None when p divides a denominator of the vectors or
        of the generators."""
        dens = set(self.dens)
        if any(d % p == 0 for d in dens):
            return None
        gens = gen_values(p, n, cache)
        if gens is None:
            return None
        inverse = {d: pow(d, -1, p) for d in dens}
        coeffs = np.zeros((len(self.vectors), len(self.gids)), dtype=np.int64)
        coeffs[self.rows, self.cols] = [
            a * inverse[d] % p for a, d in zip(self.nums, self.dens)
        ]
        values = np.ones((len(self.gids), n), dtype=np.int64)
        for j, count in enumerate(self.counts):
            values[:count] = values[:count] * gens[self.gids[:count, j]] % p
        return genmat.mod_matmul(values.T, coeffs.T, p)


def _modular_zeta(
    basis: HwvBasis, cache: genmat.EvalCache
) -> tuple[list[tuple[Fraction, ...]], tuple[AbsPoly, ...]]:
    """(zeta, relvectors): the kernel of the evaluation map on the basis,
    from its values at integer points mod p, and the relation vectors that
    _proven_at_points built from those zeta and proved to be the whole
    relation space.

    A relation vanishes at every point, so r <= s - rank_p(E_p) for every
    prime p that divides no denominator; the vote of
    nullspace.modular_kernel keeps the largest rank, and its candidate
    vectors, in free-column form, are independent.  The basis must have
    multiplicity(lam) vectors (AssertionError otherwise, before any value
    is computed), since the proof counts against it.  The first prime
    alone is given s + _EXTRA_POINTS points, and each further pair of
    primes _EXTRA_POINTS more; the proof checks the candidates at all the
    points drawn so far."""
    lam = basis.lam
    if basis.s != multiplicity(lam):
        raise AssertionError(
            f"the basis of weight ({lam.l1},{lam.l2}) has {basis.s} vectors, "
            f"not the multiplicity {multiplicity(lam)}"
        )
    values = _PointValues(basis.vectors)
    # the points of each prime drawn, never fewer than the one before
    drawn: list[int] = []
    proved: list[tuple[AbsPoly, ...] | None] = []

    def echelon(p: int):
        drawn.append(basis.s + _EXTRA_POINTS * (1 + (len(drawn) + 1) // 2))
        E = values(p, drawn[-1], cache)
        return None if E is None else _rref_mod(E, p)

    def prove(zeta: Sequence[Sequence[Fraction]]) -> bool:
        proved.append(_proven_at_points(zeta, basis, drawn[-1], cache))
        return proved[-1] is not None

    try:
        kernel = modular_kernel(echelon, basis.s, prove)
    except NullStreamError as exc:
        raise NullStreamError(f"relation space of weight ({lam.l1},{lam.l2}): {exc}") from exc
    # modular_kernel returns the zeta of the last proof, which held
    return list(kernel.vectors), proved[-1]


def _proven_at_points(
    zeta: Sequence[Sequence[Fraction]], basis: HwvBasis, n: int, cache: genmat.EvalCache
) -> tuple[AbsPoly, ...] | None:
    """The combinations sum_i z_i v_i of the basis vectors, one per zeta,
    when they are proven to span the relations of the weight, else None.
    The count is checked first, then the combinations at the first n
    points, with no symbolic product.

    The proof, for k = len(zeta) candidates, which the prime loop gives in
    free-column form from a prime q with k = s - rank_q(E_q) at its first
    n_q <= n points, and for a basis of s = multiplicity(lam) vectors (see
    _modular_zeta):
    1. r >= m - c0(lam): phi maps the highest weight vectors of weight lam
       into those of C^0, a space of dimension c0 (see glcat.c0).
    2. A relation vanishes at every point, so the relations lie in
       ker E_Q, the kernel of the values at the n integer points, and
       r <= s - rank(E_Q) <= s - rank_q(E_q) = k, E_q being the values at
       the first n_q points, reduced mod q.
    3. So k = m - c0 gives r = k = dim ker E_Q: the relations are
       ker E_Q.  k < m - c0 contradicts 1 and 2 and raises
       NullStreamError; k > m - c0 gives None, and more primes and points
       are drawn.
    4. The k combinations are relations exactly when they vanish at the n
       points (see _zero_at_points).

    Each combination must be a highest weight vector of weight lam, as
    step 1 assumes (AssertionError otherwise, before any value)."""
    vectors = tuple(_relation_vector(z, basis.vectors) for z in zeta)
    _check_highest_weight(basis.lam, vectors)
    lam = basis.lam
    count = multiplicity(lam) - c0(lam)
    if len(vectors) < count:
        raise NullStreamError(
            f"s - rank_p = {len(vectors)} is below the count m - c0 = {count}"
        )
    if len(vectors) > count or not _zero_at_points(vectors, n, cache):
        return None
    return vectors


def _zero_at_points(vectors: Sequence[AbsPoly], n: int, cache: genmat.EvalCache) -> bool:
    """Is every vector exactly zero at the first n points of
    genmat.sample_points?  Their values are taken mod PRIMES in order,
    skipping a prime that divides a denominator, until the product of the
    primes exceeds twice the largest of _value_bounds: an integer of
    absolute value at most B that vanishes mod primes whose product exceeds
    2 B is zero."""
    if not vectors:
        return True
    bound = 2 * max(_value_bounds(vectors, _gen_evals(cache)))
    values = _PointValues(vectors)
    modulus = 1
    for q in PRIMES:
        if modulus > bound:
            return True
        V = values(q, n, cache)
        if V is None:
            continue
        if V.any():
            return False
        modulus *= q
    return modulus > bound


def _value_bounds(vectors: Sequence[AbsPoly], gens: list[PackedPoly]) -> list[int]:
    """For each vector v, a B with |L v(x)| <= B at every integer point x
    whose coordinates are at most genmat.POINT_BOUND in absolute value.
    The generator evaluations gens are g = G_g / d_g, G_g an integer
    polynomial, and L = v.den lcm_m (prod_{g in m} d_g) makes L v(x) an
    integer for every integer x.  A term of G_g is at most ||G_g||_1
    T^deg(g) at x, with ||G_g||_1 the sum of the absolute values of its
    coefficients, so B = sum_m |v.nums[m]| (lcm / prod_{g in m} d_g)
    prod_{g in m} ||G_g||_1 T^deg(m)."""
    # ||G_g||_1 T^deg(g), and (prod d_g, prod ||G_g||_1 T^deg(g)) by monomial
    weight = [
        sum(map(abs, g.coeffs.tolist())) * genmat.POINT_BOUND ** sum(a.bidegree)
        for g, a in zip(gens, ABS_GENS)
    ]
    factors = {
        m: (prod(gens[g].den for g in m), prod(weight[g] for g in m))
        for m in dict.fromkeys(m for v in vectors for m in v.nums)
    }
    bounds = []
    for v in vectors:
        common = lcm(1, *(factors[m][0] for m in v.nums))
        bounds.append(
            sum(abs(c) * (common // factors[m][0]) * factors[m][1] for m, c in v.nums.items())
        )
    return bounds


def _load_space(lam: Partition, summary: dict, catalog: str) -> RelationSpace | None:
    """The space of a stored summary, or None, a miss, unless its zeta and
    relation vectors parse, are as many, and pass
    _are_highest_weight_vectors.  Every coefficient must read "n/d" (see
    _parse_ratio), and the AbsPoly constructor rejects a bad generator id
    or an unsorted monomial.  No basis is solved."""
    try:
        zeta = tuple(tuple(Fraction(*_parse_ratio(x)) for x in z) for z in summary["zeta"])
        relvectors = tuple(_stored_poly(terms) for terms in summary["relvectors"])
    except (KeyError, ValueError, TypeError):
        return None
    if len(zeta) != len(relvectors) or not _are_highest_weight_vectors(lam, relvectors):
        return None
    return RelationSpace(lam, zeta, relvectors, catalog, from_cache=True)


def _parse_ratio(text: str) -> tuple[int, int]:
    """(n, d) of the text "n/d" of a stored coefficient; ValueError unless
    d > 0, TypeError unless it is a str."""
    if not isinstance(text, str):
        raise TypeError(f"coefficient {text!r} is not a str")
    n, d = text.split("/")
    n, d = int(n), int(d)
    if d <= 0:
        raise ValueError(f"denominator of {text!r} is not positive")
    return n, d


def _stored_poly(terms: list) -> AbsPoly:
    """The AbsPoly of stored [monomial, "n/d"] pairs, through the checked
    constructor."""
    ratios = [(tuple(m), *_parse_ratio(c)) for m, c in terms]
    den = lcm(1, *(d for _, _, d in ratios))
    return AbsPoly({m: n * (den // d) for m, n, d in ratios}, den)


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
            len(residual.nums),
            sample,
            digest_text(poly_to_text(residual)),
        )


# the report of a candidate that is zero
ZERO_REPORT = ZeroReport.of(CommPoly.zero(genmat.VARSET18))


def verify_zero(e: TraceExpr, cache: genmat.EvalCache) -> ZeroReport:
    """Evaluate a trace expression and report whether it is identically
    zero; a nonzero residual is summarized monomial by monomial, capped."""
    return ZeroReport.of(genmat.eval_trace_expr(e, cache))


def verify_zero_abs(p: AbsPoly, cache: genmat.EvalCache) -> ZeroReport:
    """Same as verify_zero but straight from an AbsPoly.  A homogeneous p
    that lies in the relation space the cache holds for its bidegree (see
    relation_space) is a combination of relations, so it is zero by
    linearity, and nothing is evaluated.  Any other p is evaluated (see
    evaluate_abs).

    A held space read from the store is trusted to be zero: _load_space
    checks that its vectors are highest weight vectors of its weight, not
    that they evaluate to zero.  Its zero rests on the exact proof made
    before it was stored, on the catalog digest in its key and on the
    SHA-256 of the entry."""
    try:
        space = cache._spaces.get(p.bidegree())
    except NotHomogeneous:
        space = None
    if space is not None and membership(p, space):
        return ZERO_REPORT
    return evaluate_abs(p, cache)


def evaluate_abs(p: AbsPoly, cache: genmat.EvalCache) -> ZeroReport:
    """The report of p evaluated as the one column of the matrix
    _assemble_matrix builds for it, whatever the cache holds.  A monomial
    beyond the packed fields raises PackedCapacityError before a generator
    is evaluated."""
    _check_packed([p])
    M, colscale, keys = _assemble_matrix([p], _gen_evals(cache), cache)
    ev = PackedPoly.from_column(keys, M[:, 0], colscale[0])
    return ZeroReport.of(ev.to_comm(genmat.VARSET18))


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
                red = red - hit.scale(
                    Fraction(red.nums[lead] * hit.den, red.den * hit.nums[lead])
                )
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
    # a kernel vector nums / den spans the line of nums, an integer zeta
    return span_rank(_relation_vector(nums, products) for nums, _ in raising_kernel(products))


def new_relations(
    degree: int,
    mode: str = "modular",
    *,
    cache: genmat.EvalCache,
    threads: int = 1,
) -> NewRelationsReport:
    """Split the weight multiplicities of degree-d relations into
    consequences of lower degree relations and new ones.  mode and threads
    are as in relation_space: mode must be "modular", and threads is
    ignored."""
    _check_mode(mode)
    if degree not in LAMBDAS_BY_DEGREE:
        raise ValueError(f"no relation data for degree {degree}")
    lower_orbits: list[AbsPoly] = []
    for d in sorted(LAMBDAS_BY_DEGREE):
        if d >= degree:
            break
        for lam in LAMBDAS_BY_DEGREE[d]:
            space = relation_space(lam, cache=cache)
            lower_orbits.extend(orbit(space))
    items = []
    for lam in LAMBDAS_BY_DEGREE[degree]:
        space = relation_space(lam, cache=cache)
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
    """The stored evidence for one relation vector (see to_json).

    trace_form is phi of the relation vector, which evaluates to zero on the
    generic matrices; claim_digest is the SHA-256 of the text that claims
    so, and digests no evaluation."""

    lam: Partition
    index: int
    zeta: tuple[str, ...]
    abspoly: tuple[tuple[tuple[tuple[int, int], ...], str], ...]
    trace_form: str
    leading: str | None
    claim_digest: str

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
            "claim_digest": self.claim_digest,
        }


def build_certificate(space: RelationSpace, index: int) -> RelationCertificate:
    v = space.relvectors[index]
    red = reduce_hsop(v)
    lead = leading_monomial(red)
    abspoly = tuple(
        (tuple((ABS_GENS[g].module, ABS_GENS[g].j) for g in mono), c)
        for mono, c in v.text_terms()
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
            f"relcert:v2:{lam.l1},{lam.l2}:{i}:{space.catalog_digest}:"
            f"{RELSPACE_SCHEMA}:{content}"
        )
        if not isinstance(store.get_json(key), dict):
            store.put_json(key, build_certificate(space, i).to_json())
        keys.append(key)
    return keys
