"""Fast exact arithmetic for the 18-variable evaluation polynomials.

Monomials are packed into a single int64 key: three 4-bit fields for the x
variables followed by fifteen 3-bit fields for the y variables (57 bits in
total), so multiplying monomials is integer addition of keys.  Coefficients
are int64 with a tracked magnitude bound; once a bound could reach 2**62 the
coefficient array switches to Python integers (object dtype), so results are
exact in all cases.  Each polynomial carries a single positive denominator.

Field capacity limits exponents to 15 per x variable and 7 per y variable.
Degrees are tracked per polynomial and operations that could overflow a field
raise PackedCapacityError; callers fall back to generic CommPoly arithmetic.

Every result is normalized: keys sorted, duplicates summed, zeros dropped,
and gcd(content, den) = 1.  The content gcd is seeded with the denominator,
so it costs nothing on the common den == 1 path.  Products lay their outer
sum out as sorted runs, one per term of the smaller factor; products, sums,
linear combinations and derivations all hand concatenated sorted runs to one
stable sort (timsort for int64), which merges them.  Linear combinations go
through sum_scaled, which sorts the concatenated terms once per batch instead
of once per term, and derivation applies a derivation sum x_i d/dy_j, which
moves one degree from a y variable to an x variable, as a shift of the keys.

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
# terms of one outer-sum chunk in mul; bounds the transient arrays of a product
_MUL_TERMS = 4_000_000
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

    @classmethod
    def from_comm(cls, poly: CommPoly) -> "PackedPoly":
        return cls.from_terms(poly.terms.items())

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
        exps = unpack_keys(keys)
        xdeg = int(exps[:, :NX].sum(axis=1).max()) if nnz else 0
        ydeg = int(exps[:, NX:].sum(axis=1).max()) if nnz else 0
        return cls(keys, coeffs, den, xdeg, ydeg)

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
        if self.is_zero() or other.is_zero():
            return PackedPoly.zero()
        xdeg = self.xdeg + other.xdeg
        ydeg = self.ydeg + other.ydeg
        if xdeg > XCAP or ydeg > YCAP:
            raise PackedCapacityError(
                f"product degree ({xdeg},{ydeg}) exceeds packed capacity ({XCAP},{YCAP})"
            )
        a, b = (self, other) if self.nnz >= other.nnz else (other, self)
        bound = a.bound * b.bound * min(a.nnz, b.nnz)
        big = bound >= _COEFF_LIMIT or a.is_big() or b.is_big()
        ca = a.coeffs.astype(object) if big and not a.is_big() else a.coeffs
        cb = b.coeffs.astype(object) if big and not b.is_big() else b.coeffs
        # b-major outer sums: row i is b.keys[i] + a.keys, a sorted run that
        # _combine's stable sort merges; chunk the rows of b to cap the size
        chunk = max(1, _MUL_TERMS // a.nnz)
        pieces_k, pieces_c = [], []
        for start in range(0, b.nnz, chunk):
            kb = b.keys[start : start + chunk]
            pieces_k.append((kb[:, None] + a.keys[None, :]).ravel())
            pieces_c.append((cb[start : start + chunk, None] * ca[None, :]).ravel())
        keys = np.concatenate(pieces_k)
        coeffs = np.concatenate(pieces_c)
        return _combine(keys, coeffs, a.den * b.den, xdeg, ydeg)


def _combine(keys: np.ndarray, coeffs: np.ndarray, den: int, xdeg: int, ydeg: int) -> PackedPoly:
    """Sort by key, sum duplicates, drop zeros, strip content.

    The keys may come in any order, but the callers pass concatenated sorted
    runs, which the stable sort (timsort for int64) merges instead of
    re-sorting.  Duplicates are summed exactly, so the order of ties does
    not matter.
    """
    if len(keys) == 0:
        return PackedPoly.zero()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    coeffs = coeffs[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    summed = np.add.reduceat(coeffs, idx)
    keys = keys[idx]
    nz = summed != 0
    if not nz.all():
        keys = keys[nz]
        summed = summed[nz]
    return _normalize(keys, summed, den, xdeg, ydeg)


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


def linear_combination(polys: Sequence[PackedPoly], ints: Sequence[int]) -> PackedPoly:
    """Sum of ints[i] * polys[i] with integer weights."""
    return sum_scaled((p, Fraction(c)) for p, c in zip(polys, ints, strict=True))


def derivation(p: PackedPoly, pairs: Sequence[tuple[int, int]]) -> PackedPoly:
    """Apply sum over (src, dst) of v_dst * d/dv_src, where each pair names a
    y variable src and an x variable dst by index.

    Each term is a shift of the packed keys.  Raises PackedCapacityError when
    an x exponent would overflow its field.
    """
    if not all(dst < NX <= src for src, dst in pairs):
        raise ValueError("derivation pairs must map a y variable to an x variable")
    keys_out, coeffs_out = [], []
    for src, dst in pairs:
        exps = (p.keys >> SHIFTS[src]) & MASKS[src]
        sel = np.flatnonzero(exps)
        if len(sel) == 0:
            continue
        keys = p.keys[sel]
        if np.any(((keys >> SHIFTS[dst]) & XCAP) == XCAP):
            raise PackedCapacityError(f"x exponent of variable {dst} would exceed {XCAP}")
        keys_out.append(keys - (1 << SHIFTS[src]) + (1 << SHIFTS[dst]))
        coeffs_out.append((p.coeffs[sel], exps[sel]))
    if not keys_out:
        return PackedPoly.zero()
    # a y exponent is at most YCAP, and an output term sums at most
    # len(pairs) shifted input terms
    big = p.is_big() or p.bound * YCAP * len(pairs) >= _COEFF_LIMIT
    coeffs = np.concatenate(
        [(c.astype(object) if big else c) * e for c, e in coeffs_out]
    )
    return _combine(
        np.concatenate(keys_out), coeffs, p.den, p.xdeg + 1, max(p.ydeg - 1, 0)
    )
