"""Fast exact arithmetic for the 18-variable evaluation polynomials.

Monomials are packed into a single int64 key: three 4-bit fields for the x
variables followed by fifteen 3-bit fields for the y variables (57 bits in
total), so multiplying monomials is integer addition of keys.  Coefficients
are int64 with a tracked magnitude bound; once a bound could reach 2**62 the
coefficient array switches to Python integers (object dtype), so results are
exact in all cases.  Each polynomial carries a single positive denominator.

Field capacity limits exponents to 15 per x variable and 7 per y variable.
Degrees are tracked per polynomial and operations that could overflow a field
raise PackedCapacityError.  Only genmat.eval_word_trace and eval_trace_expr
fall back to generic CommPoly arithmetic; relfinder._assemble_matrix and
genmat.eval_trace_expr_packed raise it, and the CLI reports it in one line.

Every result is normalized: keys sorted, duplicates summed, zeros dropped,
and gcd(content, den) = 1.  The content gcd is seeded with the denominator,
so it costs nothing on the common den == 1 path.  Products go through a
SumTable, which multiplies many polynomials by one common factor: one
stable sort of the key sums gives their distinct values and the position of
every sum among them, and each product is then a scatter-add of its
coefficient products at those positions, read back in key order; mul is
the one-product case.  Sums, linear combinations and derivations hand
concatenated sorted runs to one stable sort (timsort for int64), which
merges them.  Linear combinations go through sum_scaled, which sorts the
concatenated terms once per batch instead of once per term, and derivation
applies a derivation sum x_i d/dy_j, which moves one degree from a y
variable to an x variable, as a shift of the keys.  at_zero sets one
variable to zero by dropping the terms it divides.

to_bytes and from_bytes give the binary form the disk cache stores: a fixed
header, then the raw little-endian keys and coefficients.  from_bytes checks
the invariants above and rejects anything else with ValueError.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from ._lazy import np
from .polyring import CommPoly, VarSet

NX = 3
NY = 15
NVARS = NX + NY

_XBITS = 4
_YBITS = 3
# x fields occupy the high bits, y fields the low 45 bits
SHIFTS = tuple(45 + _XBITS * (NX - 1 - i) for i in range(NX)) + tuple(
    _YBITS * (NY - 1 - i) for i in range(NY)
)
_XMASK = (1 << _XBITS) - 1
_YMASK = (1 << _YBITS) - 1
MASKS = (_XMASK,) * NX + (_YMASK,) * NY

XCAP = _XMASK
YCAP = _YMASK

_COEFF_LIMIT = 1 << 62
# entries of a SumTable sorted at once, and coefficient products of one
# product scattered at once; bounds the transient arrays of a product
_MUL_TERMS = 1 << 20
# every packed key is below this: the x fields end at bit 45 + NX * _XBITS
_KEY_LIMIT = 1 << (45 + NX * _XBITS)

# Binary form: header (magic, format version, coefficient kind, coefficient
# width in bytes, nnz), the denominator in `width` bytes, nnz int64 keys,
# then nnz coefficients of `width` bytes each, all little-endian.  Kind
# _KIND_INT64 has width 8; kind _KIND_BIG stores Python integers as signed
# integers of a common width, the exact form of object coefficients.
_MAGIC = b"TFPK"
_FORMAT_VERSION = 1
_KIND_INT64, _KIND_BIG = 0, 1
_HEADER = struct.Struct("<4sBBIQ")


class PackedCapacityError(OverflowError):
    """An exponent field would overflow; use the generic representation."""


def pack_exponents(exps: Sequence[int]) -> int:
    if len(exps) != NVARS:
        raise ValueError(f"expected {NVARS} exponents")
    key = 0
    for e, s, m in zip(exps, SHIFTS, MASKS):
        if e < 0 or e > m:
            raise PackedCapacityError(f"exponent {e} exceeds field capacity {m}")
        key |= e << s
    return key


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Exponent matrix (n x NVARS) for an int64 key array."""
    out = np.empty((len(keys), NVARS), dtype=np.int64)
    for i, (s, m) in enumerate(zip(SHIFTS, MASKS)):
        out[:, i] = (keys >> s) & m
    return out


def _key_degrees(keys: np.ndarray) -> tuple[int, int]:
    """Largest x degree and largest y degree among the monomials of keys."""
    exps = unpack_keys(keys)
    xdeg = exps[:, :NX].sum(axis=1).max(initial=0)
    ydeg = exps[:, NX:].sum(axis=1).max(initial=0)
    return int(xdeg), int(ydeg)


def _as_coeffs(values, big: bool) -> np.ndarray:
    if big:
        return np.array(values, dtype=object)
    return np.asarray(values, dtype=np.int64)


def _max_abs(coeffs: np.ndarray) -> int:
    if len(coeffs) == 0:
        return 0
    return int(np.max(np.abs(coeffs)))


def _signed_width(v: int) -> int:
    """Bytes that hold v as a signed little-endian integer."""
    return v.bit_length() // 8 + 1


def _den_gcd(coeffs: np.ndarray, den: int) -> int:
    """gcd(content(coeffs), den); object coefficients stop as soon as it is 1."""
    if den == 1:
        return 1
    if coeffs.dtype != object:
        return gcd(den, int(np.gcd.reduce(coeffs)))
    g = den
    for c in coeffs:
        if g == 1:
            break
        g = gcd(g, int(c))
    return g


class PackedPoly:
    """Exact polynomial with packed monomial keys.

    Invariants: keys sorted ascending, no zero coefficients, den > 0,
    gcd(content, den) = 1, bound >= max |coefficient|.
    """

    __slots__ = ("keys", "coeffs", "den", "bound", "xdeg", "ydeg")

    def __init__(self, keys: np.ndarray, coeffs: np.ndarray, den: int, xdeg: int, ydeg: int):
        self.keys = keys
        self.coeffs = coeffs
        self.den = den
        self.bound = _max_abs(coeffs)
        self.xdeg = xdeg
        self.ydeg = ydeg

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PackedPoly":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1, 0, 0)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Sequence[int], Fraction]]) -> "PackedPoly":
        keys, nums, dens = [], [], []
        xdeg = ydeg = 0
        for exps, c in terms:
            c = Fraction(c)
            if not c:
                continue
            keys.append(pack_exponents(exps))
            nums.append(c.numerator)
            dens.append(c.denominator)
            xdeg = max(xdeg, sum(exps[:NX]))
            ydeg = max(ydeg, sum(exps[NX:]))
        if not keys:
            return cls.zero()
        den = 1
        for d in dens:
            den = den * d // gcd(den, d)
        scaled = [n * (den // d) for n, d in zip(nums, dens)]
        big = any(abs(v) >= _COEFF_LIMIT for v in scaled)
        p = cls(np.array(keys, dtype=np.int64), _as_coeffs(scaled, big), den, xdeg, ydeg)
        return _combine(p.keys, p.coeffs, p.den, p.xdeg, p.ydeg)

    def to_comm(self, varset: VarSet) -> CommPoly:
        if len(varset) != NVARS:
            raise ValueError("VarSet arity mismatch")
        rows = unpack_keys(self.keys).tolist()
        terms = {
            tuple(e): Fraction(c, self.den) for e, c in zip(rows, self.coeffs.tolist())
        }
        return CommPoly(varset, terms)

    def to_bytes(self) -> bytes:
        """The binary form read back by from_bytes."""
        if not self.is_big() and self.den < 1 << 63:
            kind, width = _KIND_INT64, 8
            coeffs = self.coeffs.astype("<i8").tobytes()
        else:
            kind = _KIND_BIG
            values = self.coeffs.tolist()
            width = max(_signed_width(v) for v in [self.den, *values])
            coeffs = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
        return b"".join(
            (
                _HEADER.pack(_MAGIC, _FORMAT_VERSION, kind, width, self.nnz),
                self.den.to_bytes(width, "little", signed=True),
                self.keys.astype("<i8").tobytes(),
                coeffs,
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedPoly":
        """Decode to_bytes output; ValueError unless it is a normalized
        polynomial.  xdeg and ydeg are recomputed from the keys."""
        if len(data) < _HEADER.size:
            raise ValueError("truncated header")
        magic, version, kind, width, nnz = _HEADER.unpack_from(data)
        if magic != _MAGIC or version != _FORMAT_VERSION:
            raise ValueError("not a packed polynomial of this format version")
        if (kind, width) != (_KIND_INT64, 8) and not (kind == _KIND_BIG and width > 0):
            raise ValueError(f"bad coefficient kind {kind} or width {width}")
        at = _HEADER.size + width
        if len(data) != at + nnz * (8 + width):
            raise ValueError("length does not match the header")
        den = int.from_bytes(data[_HEADER.size : at], "little", signed=True)
        keys = np.frombuffer(data, dtype="<i8", count=nnz, offset=at).astype(np.int64)
        at += 8 * nnz
        if kind == _KIND_INT64:
            coeffs = np.frombuffer(data, dtype="<i8", count=nnz, offset=at).astype(np.int64)
            # the bound _normalize keeps for int64 coefficients (np.abs of
            # -2**63 would overflow, so compare both ends)
            if np.any((coeffs >= _COEFF_LIMIT) | (coeffs <= -_COEFF_LIMIT)):
                raise ValueError("int64 coefficient out of range")
        else:
            coeffs = np.array(
                [
                    int.from_bytes(data[i : i + width], "little", signed=True)
                    for i in range(at, len(data), width)
                ],
                dtype=object,
            )
            if _max_abs(coeffs) < _COEFF_LIMIT:
                coeffs = coeffs.astype(np.int64)
        if den <= 0:
            raise ValueError("denominator is not positive")
        if nnz and (keys[0] < 0 or keys[-1] >= _KEY_LIMIT):
            raise ValueError("key out of range")
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys are not strictly ascending")
        if np.any(coeffs == 0):
            raise ValueError("zero coefficient")
        if _den_gcd(coeffs, den) != 1:
            raise ValueError("content and denominator are not coprime")
        return cls(keys, coeffs, den, *_key_degrees(keys))

    @classmethod
    def from_column(cls, keys: np.ndarray, column: np.ndarray, den: int) -> "PackedPoly":
        """column / den, where column[k] is the integer coefficient at the
        strictly ascending keys[k].  Zero entries are dropped, and xdeg and
        ydeg are read from the keys that remain."""
        nz = np.flatnonzero(column)
        keys = keys[nz]
        return _normalize(keys, column[nz], den, *_key_degrees(keys))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.keys) == 0

    @property
    def nnz(self) -> int:
        return len(self.keys)

    def is_big(self) -> bool:
        return self.coeffs.dtype == object

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedPoly):
            return NotImplemented
        return (
            self.den == other.den
            and len(self.keys) == len(other.keys)
            and bool(np.array_equal(self.keys, other.keys))
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        return f"PackedPoly(nnz={self.nnz}, den={self.den}, deg=({self.xdeg},{self.ydeg}))"

    # -- arithmetic ---------------------------------------------------------

    def neg(self) -> "PackedPoly":
        return PackedPoly(self.keys, -self.coeffs, self.den, self.xdeg, self.ydeg)

    def scale(self, q: Fraction) -> "PackedPoly":
        q = Fraction(q)
        if not q or self.is_zero():
            return PackedPoly.zero()
        bound = self.bound * abs(q.numerator)
        coeffs = self.coeffs
        if bound >= _COEFF_LIMIT and not self.is_big():
            coeffs = coeffs.astype(object)
        return _normalize(
            self.keys, coeffs * q.numerator, self.den * q.denominator, self.xdeg, self.ydeg
        )

    def add(self, other: "PackedPoly") -> "PackedPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        den = self.den * other.den // gcd(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        bound = self.bound * ma + other.bound * mb
        big = bound >= _COEFF_LIMIT or self.is_big() or other.is_big()
        ca = self.coeffs.astype(object) if big and not self.is_big() else self.coeffs
        cb = other.coeffs.astype(object) if big and not other.is_big() else other.coeffs
        keys = np.concatenate([self.keys, other.keys])
        coeffs = np.concatenate([ca * ma, cb * mb])
        return _combine(
            keys, coeffs, den, max(self.xdeg, other.xdeg), max(self.ydeg, other.ydeg)
        )

    def mul(self, other: "PackedPoly") -> "PackedPoly":
        """self * other, as the one product of a SumTable over the larger
        factor."""
        a, b = (self, other) if self.nnz >= other.nnz else (other, self)
        return SumTable([a], b).product(a)[1]


def _product_degrees(p: PackedPoly, factor: PackedPoly) -> tuple[int, int]:
    """The degrees of p * factor; PackedCapacityError if they overflow a field."""
    xdeg = p.xdeg + factor.xdeg
    ydeg = p.ydeg + factor.ydeg
    if xdeg > XCAP or ydeg > YCAP:
        raise PackedCapacityError(
            f"product degree ({xdeg},{ydeg}) exceeds packed capacity ({XCAP},{YCAP})"
        )
    return xdeg, ydeg


def content(p: PackedPoly) -> int:
    """The gcd of the integer coefficients of p, 0 for zero.  By Gauss's
    lemma the content of a product of integer polynomials is the product of
    their contents (see glcat.predicted_dens)."""
    if p.coeffs.dtype != object:
        return int(np.gcd.reduce(p.coeffs))
    g = 0
    for c in p.coeffs:
        g = gcd(g, int(c))
        if g == 1:
            break
    return g


class SumTable:
    """Products of many polynomials P by one common factor g.

    keys is S, the sorted union of the keys of the nonzero P; sums is U, the
    sorted distinct values of s + k over s in S and k in g.keys.  The table
    keeps, for every such pair, the position of s + k in U (uint16 while U
    has at most 2^16 entries, else int32).  A product P * g is then an exact
    scatter-add of the coefficient products of P and g into one accumulator
    over U, read back in U order: no product sorts its own terms.  The
    accumulator is reused, and only its touched entries are zeroed again.
    The constructor raises PackedCapacityError, before anything is built,
    if some product would overflow a field.
    """

    __slots__ = ("factor", "keys", "sums", "_inv", "_acc")

    def __init__(self, polys: Sequence[PackedPoly], factor: PackedPoly):
        polys = [p for p in polys if not p.is_zero()] if not factor.is_zero() else []
        for p in polys:
            _product_degrees(p, factor)
        self.factor = factor
        keys = [p.keys for p in polys]
        if len({id(k) for k in keys}) > 1:
            self.keys = distinct_keys(np.concatenate(keys))
        else:
            self.keys = keys[0] if keys else np.empty(0, dtype=np.int64)
        self.sums, self._inv = _sum_table(self.keys, factor.keys)
        self._acc: dict[bool, np.ndarray] = {}

    def product(self, p: PackedPoly) -> tuple[np.ndarray, PackedPoly]:
        """(pos, p * factor), where p is one of the polynomials the table was
        built from and the keys of the product are sums[pos]."""
        g = self.factor
        if p.is_zero() or g.is_zero():
            return np.empty(0, dtype=np.intp), PackedPoly.zero()
        xdeg, ydeg = _product_degrees(p, g)
        big = p.bound * g.bound * min(p.nnz, g.nnz) >= _COEFF_LIMIT or p.is_big() or g.is_big()
        cp = p.coeffs.astype(object) if big and not p.is_big() else p.coeffs
        cg = g.coeffs.astype(object) if big and not g.is_big() else g.coeffs
        acc = self._acc.get(big)
        if acc is None:
            acc = self._acc[big] = np.zeros(len(self.sums), dtype=object if big else np.int64)
        cols = (
            np.arange(p.nnz) if p.keys is self.keys else np.searchsorted(self.keys, p.keys)
        )
        # scatter at most _MUL_TERMS coefficient products at once
        chunk = max(1, _MUL_TERMS // g.nnz)
        for start in range(0, p.nnz, chunk):
            at = cols[start : start + chunk]
            np.add.at(
                acc,
                self._inv[:, at].ravel(),
                (cg[:, None] * cp[None, start : start + chunk]).ravel(),
            )
        # every sum lies between the smallest and the largest one
        lo, hi = int(self._inv[0, cols[0]]), int(self._inv[-1, cols[-1]]) + 1
        pos = np.flatnonzero(acc[lo:hi])
        pos += lo
        coeffs = acc[pos]
        acc[pos] = 0
        return pos, _normalize(self.sums[pos], coeffs, p.den * g.den, xdeg, ydeg)


def _sum_table(keys: np.ndarray, gkeys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, inv): the sorted distinct sums of keys and gkeys, and inv[j, i],
    the position in U of gkeys[j] + keys[i], in the narrowest of uint16 and
    int32 that holds it.

    Both inputs are sorted, so the sums for one gkey are a sorted run; a
    block of at most _MUL_TERMS sums, laid out gkey-major, goes to one stable
    sort (timsort for int64), which merges the runs."""
    if len(keys) == 0 or len(gkeys) == 0:
        return np.empty(0, dtype=np.int64), np.empty((len(gkeys), 0), dtype=np.int32)
    block = max(1, _MUL_TERMS // len(gkeys))
    pieces = []
    for start in range(0, len(keys), block):
        sums = (gkeys[:, None] + keys[None, start : start + block]).ravel()
        order = np.argsort(sums, kind="stable")
        sums = sums[order]
        first = _first_of_runs(sums)
        rank = np.cumsum(first, dtype=np.int32)
        rank -= 1
        inv = np.empty(len(sums), dtype=np.int32)
        inv[order] = rank
        pieces.append((sums[first], inv.reshape(len(gkeys), -1)))
    if len(pieces) == 1:
        sums, inv = pieces[0]
    else:
        sums = distinct_keys(np.concatenate([u for u, _ in pieces]))
        inv = np.concatenate(
            [np.searchsorted(sums, u).astype(np.int32)[inv] for u, inv in pieces], axis=1
        )
    if len(sums) <= 1 << 16:
        inv = inv.astype(np.uint16)
    return sums, inv


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """For sorted keys, True where a key differs from the one before it."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of keys, which is sorted in place
    (np.unique would copy it, and import numpy.ma)."""
    keys.sort()
    return keys[_first_of_runs(keys)]


def sort_and_sum(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by key, sum the coefficients of equal keys, drop zero sums.

    coeffs holds one coefficient per key, or one row per key (a 2-D array),
    in which case equal keys sum their rows and all-zero rows are dropped.
    The keys may come in any order, but the callers pass concatenated sorted
    runs, which the stable sort (timsort for int64) merges instead of
    re-sorting.  Duplicates are summed exactly, so the order of ties does
    not matter.
    """
    if len(keys) == 0:
        return keys, coeffs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    coeffs = coeffs[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    summed = np.add.reduceat(coeffs, idx, axis=0)
    keys = keys[idx]
    nz = summed != 0
    if nz.ndim == 2:
        nz = nz.any(axis=1)
    if not nz.all():
        keys = keys[nz]
        summed = summed[nz]
    return keys, summed


def _combine(keys: np.ndarray, coeffs: np.ndarray, den: int, xdeg: int, ydeg: int) -> PackedPoly:
    """Sort by key, sum duplicates, drop zeros, strip content."""
    keys, coeffs = sort_and_sum(keys, coeffs)
    return _normalize(keys, coeffs, den, xdeg, ydeg)


def _normalize(keys: np.ndarray, coeffs: np.ndarray, den: int, xdeg: int, ydeg: int) -> PackedPoly:
    if len(keys) == 0:
        return PackedPoly.zero()
    g = _den_gcd(coeffs, den)
    if g > 1:
        den //= g
        if coeffs.dtype == object:
            coeffs = coeffs // g
        else:
            coeffs = coeffs // np.int64(g)
    if coeffs.dtype == object and _max_abs(coeffs) < _COEFF_LIMIT:
        coeffs = coeffs.astype(np.int64)
    return PackedPoly(keys, coeffs, den, xdeg, ydeg)


# terms added to one sum_scaled batch; bounds the transient arrays of a sort
_BATCH_TERMS = 1 << 16


def sum_scaled(pairs: Iterable[tuple[PackedPoly, Fraction]]) -> PackedPoly:
    """Sum of c * p over (p, c) pairs.

    The terms are concatenated and sorted once per batch of about
    _BATCH_TERMS input terms, not once per pair; each batch also carries the
    running sum.
    """
    acc = PackedPoly.zero()
    batch: list[tuple[PackedPoly, Fraction]] = []
    size = 0
    for p, c in pairs:
        c = Fraction(c)
        if not c or p.is_zero():
            continue
        batch.append((p, c))
        size += p.nnz
        if size >= _BATCH_TERMS:
            acc = _sum_batch(batch, acc)
            batch, size = [], 0
    return _sum_batch(batch, acc) if batch else acc


def _sum_batch(terms: list[tuple[PackedPoly, Fraction]], acc: PackedPoly) -> PackedPoly:
    """acc + sum of c * p over terms, with one concatenate, sort and reduceat."""
    if not acc.is_zero():
        terms = [(acc, Fraction(1))] + terms
    if len(terms) == 1:
        p, c = terms[0]
        return p if c == 1 else p.scale(c)
    den = 1
    for p, c in terms:
        d = p.den * c.denominator
        den = den * d // gcd(den, d)
    mults = [c.numerator * (den // (p.den * c.denominator)) for p, c in terms]
    bound = sum(p.bound * abs(m) for (p, _), m in zip(terms, mults))
    big = bound >= _COEFF_LIMIT or any(p.is_big() for p, _ in terms)
    coeffs = np.concatenate(
        [(p.coeffs.astype(object) if big else p.coeffs) * m for (p, _), m in zip(terms, mults)]
    )
    keys = np.concatenate([p.keys for p, _ in terms])
    xdeg = max(p.xdeg for p, _ in terms)
    ydeg = max(p.ydeg for p, _ in terms)
    return _combine(keys, coeffs, den, xdeg, ydeg)


def at_zero(p: PackedPoly, var: int) -> PackedPoly:
    """p with the variable of index var set to zero: every term with a
    nonzero exponent of var is dropped.  Setting a variable to zero is a
    ring homomorphism, so at_zero(p * q) = at_zero(p) * at_zero(q).  The
    degrees of p are kept as bounds."""
    keep = ((p.keys >> SHIFTS[var]) & MASKS[var]) == 0
    return _normalize(p.keys[keep], p.coeffs[keep], p.den, p.xdeg, p.ydeg)


def derivation(p: PackedPoly, pairs: Sequence[tuple[int, int]]) -> PackedPoly:
    """Apply sum over (src, dst) of v_dst * d/dv_src to p, where each pair
    names a y variable src and an x variable dst by index.

    Each term is a shift of the packed keys; the result is sorted and summed
    as by sort_and_sum.  Raises PackedCapacityError when an x exponent would
    overflow its field.
    """
    if not all(dst < NX <= src for src, dst in pairs):
        raise ValueError("derivation pairs must map a y variable to an x variable")
    keys, coeffs = p.keys, p.coeffs
    # a y exponent is at most YCAP, and an output term sums at most
    # len(pairs) shifted input terms
    if coeffs.dtype != object and _max_abs(coeffs) * YCAP * len(pairs) >= _COEFF_LIMIT:
        coeffs = coeffs.astype(object)
    keys_out, coeffs_out = [], []
    for src, dst in pairs:
        exps = (keys >> SHIFTS[src]) & MASKS[src]
        sel = np.flatnonzero(exps)
        if len(sel) == 0:
            continue
        shifted = keys[sel]
        if np.any(((shifted >> SHIFTS[dst]) & XCAP) == XCAP):
            raise PackedCapacityError(f"x exponent of variable {dst} would exceed {XCAP}")
        keys_out.append(shifted - (1 << SHIFTS[src]) + (1 << SHIFTS[dst]))
        coeffs_out.append(coeffs[sel] * exps[sel])
    if not keys_out:
        return PackedPoly.zero()
    keys, coeffs = sort_and_sum(np.concatenate(keys_out), np.concatenate(coeffs_out))
    return _normalize(keys, coeffs, p.den, p.xdeg + 1, max(p.ydeg - 1, 0))
