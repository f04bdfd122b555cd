"""Evaluation of trace expressions on generic traceless 4x4 matrices.

x is generic diagonal traceless (entries x11, x22, x33, -(x11+x22+x33)); y is
fully generic traceless with the (4,4) entry eliminated.  This gives 3 + 15
independent variables in a fixed order.  Trace expressions evaluate to exact
polynomials in these 18 variables; two trace expressions agree identically on
the matrix pair iff their evaluations are equal, which is the semantic
equality oracle used everywhere else.

A word trace within the packed capacity is evaluated one whole-matrix numpy
step per letter: every entry of x and y is a sum of variables with
coefficients +-1, so multiplying a partial product by a letter shifts keys
and needs no polynomial product (see the comment above _letter_rows).
word_traces_packed evaluates many words in sorted order, so that words
sharing a prefix share its partial product.  Words beyond the capacity go
through CommPoly matrix products.

Evaluations are cached in memory per cyclic-canonical word and counted, so
reruns can be checked to perform no fresh matrix work.  No word trace is
stored: a later process reads the 30 generator evaluations instead (see
glcat._gen_evals).

Trace expressions also have values at points mod a prime p: sample_points
gives seeded residues for the 18 variables, word_values multiplies the
numeric matrices x and y of every point, and trace_expr_values combines
their traces.  None of this is counted as fresh work: it evaluates no
polynomial.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Iterator

from ._lazy import np
from .cache import CacheStore
from .packedpoly import (
    _COEFF_LIMIT,
    _KEY_LIMIT,
    NVARS,
    SHIFTS,
    PackedCapacityError,
    PackedPoly,
    XCAP,
    YCAP,
    derivation,
    sort_and_sum,
    sum_scaled,
)
from .polyring import CommPoly, VarSet
from .tracelang import TraceExpr, TraceMonomial, Word, cyclic_normalize

VARSET18 = VarSet(
    (
        "x11",
        "x22",
        "x33",
        "y11",
        "y12",
        "y13",
        "y14",
        "y21",
        "y22",
        "y23",
        "y24",
        "y31",
        "y32",
        "y33",
        "y34",
        "y41",
        "y42",
        "y43",
    )
)

assert len(VARSET18) == NVARS

# the variable that relfinder._proven sets to zero: it assembles the
# relation vectors on the slice y11 = 0
Y11 = VARSET18.index("y11")

GenericMatrix = tuple[tuple[CommPoly, ...], ...]


def _var(name: str) -> CommPoly:
    return CommPoly.variable(VARSET18, name)


def build_x() -> GenericMatrix:
    """diag(x11, x22, x33, -(x11 + x22 + x33))."""
    z = CommPoly.zero(VARSET18)
    d4 = (_var("x11") + _var("x22") + _var("x33")).scale(Fraction(-1))
    rows = []
    for i, d in enumerate((_var("x11"), _var("x22"), _var("x33"), d4)):
        rows.append(tuple(d if i == j else z for j in range(4)))
    return tuple(rows)


def build_y() -> GenericMatrix:
    """Fully generic traceless: entry (4,4) is -(y11 + y22 + y33), all other
    entries are independent variables (entry (1,4) is y14)."""
    names = [
        ["y11", "y12", "y13", "y14"],
        ["y21", "y22", "y23", "y24"],
        ["y31", "y32", "y33", "y34"],
        ["y41", "y42", "y43", None],
    ]
    d4 = (_var("y11") + _var("y22") + _var("y33")).scale(Fraction(-1))
    return tuple(
        tuple(_var(n) if n is not None else d4 for n in row) for row in names
    )


# -- word traces, one whole-matrix step per letter --------------------------
#
# A partial product of letters is one array of terms.  Each term carries the
# entry (i, j) it sits in as the tag 4 * i + j in the 4 bits above its packed
# key (every key is below _KEY_LIMIT = 2**57), so the tagged keys sort by
# entry, then by monomial.  Every entry of x and y is a sum of variables with
# coefficients +-1, so multiplying by a letter needs no polynomial product:
# for each term s * v of the letter's entry (k, j), the terms in column k move
# to (i, j) with their monomial times v, which adds one constant to their
# tagged keys.  Each move keeps its terms a sorted run; one stable sort of the
# concatenated runs merges them, and equal keys are summed.
#
# The coefficients stay in int64.  A term of the product sums at most one
# term of the partial product per term in the letter's column j, and no
# column of x or y holds more than 6 terms, so each letter multiplies the
# largest coefficient by at most 6, and the trace by at most 4 more.  The
# identity times the first letter is that letter, with coefficients +-1, and
# a word within packed capacity has at most XCAP + YCAP = 22 letters, so no
# coefficient exceeds 4 * 6**21 < 2**62.

_TAG_SHIFT = _KEY_LIMIT.bit_length() - 1
_KEY_MASK = _KEY_LIMIT - 1
assert 15 << _TAG_SHIFT < 1 << 63


def _letter_rows(mat: GenericMatrix) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each row k, the (j, var, sign) of every term sign * var of the
    entries (k, j)."""
    rows = []
    for row in mat:
        terms = []
        for j, entry in enumerate(row):
            for exps, c in entry.terms.items():
                assert sum(exps) == 1 and abs(c) == 1
                terms.append((j, exps.index(1), int(c)))
        rows.append(tuple(terms))
    return tuple(rows)


_LETTER_ROWS = {"x": _letter_rows(build_x()), "y": _letter_rows(build_y())}
_MAX_COLUMN_TERMS = max(
    sum(j == col for row in rows for j, _, _ in row)
    for rows in _LETTER_ROWS.values()
    for col in range(4)
)
assert 4 * _MAX_COLUMN_TERMS ** (XCAP + YCAP - 1) < _COEFF_LIMIT


def _times_letter(keys, coeffs, letter: str):
    """The tagged terms of the partial product times a generic matrix."""
    column = (keys >> _TAG_SHIFT) & 3
    pieces_k, pieces_c = [], []
    for k, row in enumerate(_LETTER_ROWS[letter]):
        sel = np.flatnonzero(column == k)
        keys_k, coeffs_k = keys[sel], coeffs[sel]
        for j, var, sign in row:
            pieces_k.append(keys_k + (((j - k) << _TAG_SHIFT) + (1 << SHIFTS[var])))
            pieces_c.append(coeffs_k if sign > 0 else -coeffs_k)
    return sort_and_sum(np.concatenate(pieces_k), np.concatenate(pieces_c))


def _trace_times_letter(keys, coeffs, letter: str):
    """The untagged keys and coefficients of the trace of the partial
    product times a generic matrix: only the terms that land on the
    diagonal, the entries (j, j), are made.  The tagged keys are sorted, so
    the terms of each entry are one run."""
    bounds = np.searchsorted(keys, np.arange(17, dtype=np.int64) << _TAG_SHIFT)
    pieces_k, pieces_c = [], []
    for k, row in enumerate(_LETTER_ROWS[letter]):
        for j, var, sign in row:
            # the terms at (j, k) move to (j, j)
            run = slice(bounds[4 * j + k], bounds[4 * j + k + 1])
            pieces_k.append((keys[run] & _KEY_MASK) + (1 << SHIFTS[var]))
            pieces_c.append(coeffs[run] if sign > 0 else -coeffs[run])
    return sort_and_sum(np.concatenate(pieces_k), np.concatenate(pieces_c))


# -- values at points mod p --------------------------------------------------
#
# A point gives each of the 18 variables a residue mod p, and so numeric
# matrices x and y, built from _LETTER_ROWS like their generic forms.  The
# residues stay below p < 2**25, so each entry of a product of two 4x4
# matrices sums four products below 2**50 in int64.


def sample_points(p: int, n: int) -> np.ndarray:
    """The first n points of the prime p: an (n, 18) int64 array of
    residues mod p, one column per variable of VARSET18.  Residue k is a
    splitmix64-style hash of p * 2**32 + k, reduced mod p, so the first n
    points are the same however many are drawn."""
    z = np.arange(n * NVARS, dtype=np.uint64) + np.uint64(p << 32)
    z = z * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(p)).astype(np.int64).reshape(n, NVARS)


def word_values(words: Iterable[Word], points: np.ndarray, p: int) -> dict[Word, np.ndarray]:
    """tr(w) mod p at every point, one residue per point, for each word.
    Sorted words that share a prefix share its matrix products, as in
    _compute_words_packed."""
    if p >= 1 << 25:
        raise ValueError(f"prime {p} is too large for int64 matrix products")
    letters = {}
    for letter, rows in _LETTER_ROWS.items():
        mat = np.zeros((len(points), 4, 4), dtype=np.int64)
        for k, row in enumerate(rows):
            for j, var, sign in row:
                mat[:, k, j] += sign * points[:, var]
        letters[letter] = mat % p
    out = {}
    # (prefix, its product at every point), each a prefix of the next
    path: list[tuple[str, np.ndarray | None]] = [("", None)]
    for w in sorted(set(words)):
        while not w.startswith(path[-1][0]):
            path.pop()
        prefix, mat = path[-1]
        for ch in w[len(prefix) :]:
            mat = letters[ch] if mat is None else (mat @ letters[ch]) % p
            prefix += ch
            path.append((prefix, mat))
        out[w] = np.trace(mat, axis1=1, axis2=2) % p
    return out


def trace_expr_values(
    exprs: Iterable[TraceExpr], points: np.ndarray, p: int
) -> np.ndarray | None:
    """The values mod p of trace expressions at the points: one row per
    expression, one column per point.  None when p divides the denominator
    of an expression, the lcm of its coefficients' denominators, so exactly
    when the prime p divides the denominator of a coefficient, where an
    expression has no value mod p."""
    exprs = list(exprs)
    monos: dict[TraceMonomial, int] = {}
    for e in exprs:
        for mono in e.nums:
            monos.setdefault(mono, len(monos))
    coeffs = np.zeros((len(exprs), len(monos)), dtype=np.int64)
    for i, e in enumerate(exprs):
        if e.den % p == 0:
            return None
        inverse = pow(e.den, -1, p)
        for mono, v in e.nums.items():
            coeffs[i, monos[mono]] = v * inverse % p
    words = word_values((w for mono in monos for w in mono), points, p)
    values = np.ones((len(monos), len(points)), dtype=np.int64)
    for row, mono in zip(values, monos):
        for w in mono:
            row *= words[w]
            row %= p
    return mod_matmul(coeffs, values, p)


# inner terms summed per int64 product in mod_matmul: each product of two
# residues below 2**25 is below 2**50, so a sum of 2**12 stays below 2**62
_MOD_TERMS = 1 << 12


def mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for int64 matrices of residues mod p < 2**25."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for start in range(0, A.shape[1], _MOD_TERMS):
        part = slice(start, start + _MOD_TERMS)
        out = (out + A[:, part] @ B[part]) % p
    return out


def _comm_matmul(a: GenericMatrix, b: GenericMatrix) -> GenericMatrix:
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = CommPoly.zero(VARSET18)
            for k in range(4):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class EvalStats:
    """Fresh-work counters of one EvalCache: besides evaluations and
    products, the highest weight bases solved (hwv.hwv_basis) and the
    relation spaces solved and read from the store
    (relfinder.relation_space).  disk_hits stays 0, since no word trace is
    read from a store; bench/tracer.py reads it."""

    def __init__(self) -> None:
        self.word_evals = self.mono_products = self.gen_products = self.disk_hits = 0
        self.bases_solved = self.spaces_solved = self.spaces_loaded = 0


class EvalCache:
    """Per-word and per-generator evaluation cache.

    The only state that an evaluation reads or writes, the catalog
    certificate included (see glcat.catalog).  Thread-safe with
    last-writer-wins semantics; an optional CacheStore gives persistence
    for the generator evaluations (one entry, see glcat._gen_evals), never
    for a word trace.  It holds the word traces, the evaluations of the
    30 generators, their values at the points of each prime (see
    glcat.gen_values), the highest weight bases and the relation spaces,
    so every memo lives exactly as long as the cache that was passed in.
    Nothing multiplied from the generator evaluations is kept: each
    generator-monomial product lives inside the one
    glcat.eval_abs_monomials or relfinder._assemble_matrix call that made
    it, and counts in stats.gen_products.  Products of word traces are not
    kept either: eval_trace_expr shares prefixes within one call only.  The
    relation space of each weight that relfinder.relation_space returns is
    kept: every member of it is zero, so relfinder.verify_zero_abs answers
    a member without evaluating it.  hwv.hwv_verify assembles nothing: the
    evaluated side of its check rests on the catalog certificate.
    """

    def __init__(self, store: CacheStore | None = None):
        self.store = store
        self.stats = EvalStats()
        self._words: dict[Word, PackedPoly] = {}
        self._words_comm: dict[Word, CommPoly] = {}
        self._gens: list[PackedPoly] | None = None
        # generator values at the points of each prime, by prime, filled by
        # glcat.gen_values
        self._gen_values: dict[int, np.ndarray] = {}
        # highest weight bases by weight, filled by hwv.hwv_basis
        self._bases: dict[tuple, object] = {}
        # relation spaces by weight, filled by relfinder.relation_space
        self._spaces: dict[tuple, object] = {}
        # set by glcat.catalog once the catalog is certified on this cache,
        # or its store holds the verdict
        self._catalog_certified = False
        self._lock = threading.Lock()


_DEFAULT_CACHE = EvalCache()


def default_cache() -> EvalCache:
    """An EvalCache that nothing in traceforge uses, so its counters, which
    bench/tracer.py reads, stay 0."""
    return _DEFAULT_CACHE


def _word_fits_packed(w: Word) -> bool:
    return w.count("x") <= XCAP and w.count("y") <= YCAP


def _compute_word_packed(w: Word) -> PackedPoly:
    """tr(w) of the literal product, one whole-matrix step per letter."""
    return next(_compute_words_packed([w]))[1]


def _compute_words_packed(words: list[Word]) -> Iterator[tuple[Word, PackedPoly]]:
    """(w, tr(w)) for every word, in order.  Sorted words that share a
    prefix share its partial product: the products of the prefixes of the
    previous word are kept while they are prefixes of the next one.  The
    last letter of a word is multiplied only into the diagonal entries,
    which the trace reads (see _trace_times_letter), so the product of a
    whole word is made only where it is a prefix of a later one."""
    for w in words:
        if not _word_fits_packed(w):
            # a key field would carry into its neighbour
            raise PackedCapacityError(f"word degree exceeds packed capacity: {w!r}")
    # the identity: monomial 1 at each diagonal entry
    identity = (
        np.array([(5 * i) << _TAG_SHIFT for i in range(4)], dtype=np.int64),
        np.ones(4, dtype=np.int64),
    )
    # (prefix, tagged terms of its product), each a prefix of the next
    path = [("", identity)]
    for w in words:
        while len(path[-1][0]) >= len(w) or not w.startswith(path[-1][0]):
            path.pop()
        prefix, (keys, coeffs) = path[-1]
        for ch in w[len(prefix) : -1]:
            keys, coeffs = _times_letter(keys, coeffs, ch)
            prefix += ch
            path.append((prefix, (keys, coeffs)))
        keys, coeffs = _trace_times_letter(keys, coeffs, w[-1])
        if len(keys) == 0:
            yield w, PackedPoly.zero()
        else:
            yield w, PackedPoly(keys, coeffs, 1, w.count("x"), w.count("y"))


def _compute_word_comm(w: Word) -> CommPoly:
    mats = {"x": build_x(), "y": build_y()}
    mat = mats[w[0]]
    for ch in w[1:]:
        mat = _comm_matmul(mat, mats[ch])
    acc = CommPoly.zero(VARSET18)
    for i in range(4):
        acc = acc + mat[i][i]
    return acc


def word_trace_packed(w: Word, cache: EvalCache) -> PackedPoly:
    """Packed evaluation of tr(w), keyed on the cyclic-canonical rotation."""
    key = _word_key(w)
    poly = cache._words.get(key)
    if poly is None:
        poly = _compute_word_packed(key)
        _remember_word(key, poly, cache)
    return poly


def word_traces_packed(words: Iterable[Word], cache: EvalCache) -> None:
    """word_trace_packed for every word, with the traces that the cache
    lacks computed in one pass over their sorted cyclic-canonical forms, so
    that a prefix they share is multiplied out once (see
    _compute_words_packed)."""
    keys = sorted({_word_key(w) for w in words})
    missing = [key for key in keys if key not in cache._words]
    for key, poly in _compute_words_packed(missing):
        _remember_word(key, poly, cache)


def _word_key(w: Word) -> Word:
    if len(w) < 2:
        raise ValueError("words of length < 2 have no cached trace")
    if not _word_fits_packed(w):
        raise PackedCapacityError(f"word degree exceeds packed capacity: {w!r}")
    return cyclic_normalize(w)


def _remember_word(key: Word, poly: PackedPoly, cache: EvalCache) -> None:
    """Count a computed trace and cache it."""
    with cache._lock:
        cache.stats.word_evals += 1
        cache._words[key] = poly


def eval_word_trace(w: Word, cache: EvalCache) -> CommPoly:
    """Evaluate tr(w) as an 18-variable polynomial.  len(w) >= 2 required."""
    if len(w) < 2:
        raise ValueError("trace of a word of length < 2 is not evaluated here")
    if _word_fits_packed(w):
        return word_trace_packed(w, cache).to_comm(VARSET18)
    key = cyclic_normalize(w)
    hit = cache._words_comm.get(key)
    if hit is not None:
        return hit
    poly = _compute_word_comm(key)
    with cache._lock:
        cache.stats.word_evals += 1
        cache._words_comm[key] = poly
    return poly


def _trace_monomial_packed(
    mono: TraceMonomial, cache: EvalCache, memo: dict[TraceMonomial, PackedPoly]
) -> PackedPoly:
    """Packed evaluation of a product of word traces.  Prefixes are shared
    through memo, a dict local to one evaluation."""
    if not mono:
        return PackedPoly.from_terms([((0,) * NVARS, Fraction(1))])
    hit = memo.get(mono)
    if hit is not None:
        return hit
    if len(mono) == 1:
        poly = word_trace_packed(mono[0], cache)
    else:
        prefix = _trace_monomial_packed(mono[:-1], cache, memo)
        poly = prefix.mul(word_trace_packed(mono[-1], cache))
        with cache._lock:
            cache.stats.mono_products += 1
    memo[mono] = poly
    return poly


def _mono_fits_packed(mono: TraceMonomial) -> bool:
    p = sum(w.count("x") for w in mono)
    q = sum(w.count("y") for w in mono)
    return p <= XCAP and q <= YCAP


def _trace_monomial_comm(mono: TraceMonomial, cache: EvalCache) -> CommPoly:
    acc = CommPoly.constant(VARSET18, Fraction(1))
    for w in mono:
        acc = acc * eval_word_trace(w, cache)
    return acc


def eval_trace_expr(e: TraceExpr, cache: EvalCache) -> CommPoly:
    """Evaluate a trace expression on the generic matrix pair."""
    memo: dict[TraceMonomial, PackedPoly] = {}
    packed = []
    comm_acc = CommPoly.zero(VARSET18)
    for mono, c in e.terms.items():
        if _mono_fits_packed(mono):
            packed.append((_trace_monomial_packed(mono, cache, memo), c))
        else:
            comm_acc = comm_acc + _trace_monomial_comm(mono, cache).scale(c)
    out = sum_scaled(packed).to_comm(VARSET18)
    if comm_acc:
        out = out + comm_acc
    return out


def eval_trace_expr_packed(e: TraceExpr, cache: EvalCache) -> PackedPoly:
    """Packed evaluation; raises PackedCapacityError beyond field capacity."""
    if not all(_mono_fits_packed(mono) for mono in e.terms):
        raise PackedCapacityError("monomial degree exceeds packed capacity")
    memo: dict[TraceMonomial, PackedPoly] = {}
    return sum_scaled(
        (_trace_monomial_packed(mono, cache, memo), c) for mono, c in e.terms.items()
    )


# -- the raising map on the evaluated side ----------------------------------
#
# Substituting y -> y + t x changes only the diagonal entries y_ii (i <= 3)
# to y_ii + t x_ii: x is diagonal and y44 = -(y11 + y22 + y33) shifts by
# x44 = -(x11 + x22 + x33) consistently.  Differentiating at t = 0 gives
# eval(delta e) = D eval(e) with D = sum_{i<=3} x_ii d/dy_ii.  At t = 1,
# y -> x + y acts as exp(D); D^k moves bidegree (l1, l2) to (l1 + k, l2 - k),
# so exp(D) fixes an evaluation exactly when D kills it.  glcat._certify
# proves D(ev(e_j)) = j ev(e_{j-1}) on the 30 generators, which gives
# D(ev(p)) = ev(abs_delta(p)) on the whole generator algebra.

_RAISE_PAIRS = tuple(
    (VARSET18.index(f"y{i}{i}"), VARSET18.index(f"x{i}{i}")) for i in (1, 2, 3)
)


def eval_delta(p: PackedPoly) -> PackedPoly:
    """D p, so that eval_delta(eval(e)) == eval(delta(e))."""
    return derivation(p, _RAISE_PAIRS)


def literal_word_trace(w: Word) -> CommPoly:
    """Trace of the literal product, no cyclic canonicalization and no cache.

    Exists so that cyclic invariance can be tested against an independent
    computation path.
    """
    if len(w) < 2:
        raise ValueError("words of length < 2 are not evaluated")
    if _word_fits_packed(w):
        return _compute_word_packed(w).to_comm(VARSET18)
    return _compute_word_comm(w)
