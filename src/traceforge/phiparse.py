"""Parser and formatter for the compact generator notation.

A phi expression denotes a polynomial in the abstract generators u_{i,j}
without naming them directly: each occurrence of module i contributes
t_i^{b_i} together with a content factor of letter degree a_i, either a
complete z-symbol z_i^(p,q) with p + q = a_i (denoting u_{i,q}) or a plain
run x_i^p * y_i^q with p + q = a_i (at most one plain run per module in a
monomial).  Modules with a_i = 0 have empty content, so t_i^{b_i} alone
denotes u_{i,0}.

Grammar (whitespace free between tokens, '*' required between atoms):

    phi  := sum
    sum  := ('+'|'-')? prod (('+'|'-') prod)*
    prod := atom ('*' atom)*
    atom := rational | var ('^' int)? | '(' sum ')' ('^' int)?
    var  := 't' idx | 'x' idx | 'y' idx | 'z' idx '^(' int ',' int ')'
    idx  := 1..12

Incomplete module content is a validation error naming the module and the
offending monomial, so partially specified generators cannot slip through.
"""

from __future__ import annotations

from .glcat import ABS_GENS, PARTS, AbsPoly, gen_by_modj
from .polyring import LinComb, add_nums
from .tracelang import _Scanner

# A symbol is ("t", i), ("x", i), ("y", i) or ("z", i, p, q).
_Sym = tuple


class PhiParseError(ValueError):
    def __init__(self, msg: str, pos: int | None = None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


class _Expansion(LinComb):
    """A Q-linear combination of symbol monomials: sorted tuples of
    (symbol, exponent) pairs."""

    __slots__ = ()

    @staticmethod
    def mono_mul(a: tuple, b: tuple) -> tuple:
        d = dict(a)
        for sym, e in b:
            d[sym] = d.get(sym, 0) + e
        return tuple(sorted(d.items()))


class _Parser(_Scanner):
    error_class = PhiParseError

    def zero_denominator(self, numerator_end: int) -> PhiParseError:
        # a phi expression reports the end of the denominator
        return self.error("zero denominator")

    def parse(self) -> _Expansion:
        out = self.signed_sum(_Parser.parse_prod)
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("trailing input")
        return out

    def parse_prod(self) -> _Expansion:
        out = self.parse_atom()
        while self.try_take("*"):
            out = out * self.parse_atom()
        return out

    def parse_atom(self) -> _Expansion:
        ch = self.peek()
        if ch.isdecimal():
            # a digit that int() reads; "²" is isdigit() but not isdecimal()
            return _Expansion({(): self.try_rational()})
        if ch == "(":
            self.take("(")
            inner = self.signed_sum(_Parser.parse_prod)
            self.take(")")
            if self.try_take("^"):
                return inner ** self.take_int()
            return inner
        if ch in ("t", "x", "y", "z"):
            return self.parse_var(ch)
        raise self.error("expected a rational, a variable or '('")

    def parse_var(self, kind: str) -> _Expansion:
        self.take(kind)
        idx = self.take_int()
        if not (1 <= idx <= 12):
            raise self.error(f"module index {idx} out of range 1..12")
        if kind == "z":
            self.take("^")
            self.take("(")
            p = self.take_int()
            self.take(",")
            q = self.take_int()
            self.take(")")
            part = PARTS[idx - 1]
            a = part.l1 - part.l2
            if p + q != a:
                raise self.error(
                    f"z{idx}^({p},{q}) is incomplete: exponents must sum to {a}"
                )
            sym = ("z", idx, p, q)
        else:
            sym = (kind, idx)
        exp = 1
        if self.try_take("^"):
            exp = self.take_int()
            if exp < 0:
                raise self.error("negative exponent")
        if exp == 0:
            return _Expansion({(): 1})
        return _Expansion({((sym, exp),): 1})


def _monomial_to_abs(sym_mono: tuple, text_hint: str) -> tuple[int, ...]:
    """Validate completeness of one expanded monomial; return sorted gids."""
    by_module: dict[int, dict] = {}
    for sym, e in sym_mono:
        i = sym[1]
        slot = by_module.setdefault(i, {"t": 0, "x": 0, "y": 0, "z": []})
        if sym[0] == "t":
            slot["t"] += e
        elif sym[0] == "x":
            slot["x"] += e
        elif sym[0] == "y":
            slot["y"] += e
        else:
            slot["z"].append((sym[2], sym[3], e))
    gids: list[int] = []
    for i, slot in sorted(by_module.items()):
        part = PARTS[i - 1]
        a, b = part.l1 - part.l2, part.l2
        z_total = sum(e for _, _, e in slot["z"])
        plain = slot["x"] + slot["y"]
        if a == 0:
            if plain:
                raise PhiParseError(
                    f"module {i} has letter factors but content degree 0 "
                    f"in monomial {text_hint}"
                )
            if b == 0 or slot["t"] % b != 0:
                raise PhiParseError(
                    f"module {i}: t exponent {slot['t']} is not a multiple "
                    f"of {b} in monomial {text_hint}"
                )
            m_i = slot["t"] // b
            if m_i < z_total:
                raise PhiParseError(
                    f"module {i}: {z_total} z-factors but t exponent gives "
                    f"{m_i} occurrences in monomial {text_hint}"
                )
            for p, q, e in slot["z"]:
                gids.extend([gen_by_modj(i, q).gid] * e)
            gids.extend([gen_by_modj(i, 0).gid] * (m_i - z_total))
            continue
        if plain == 0:
            plain_occ = 0
        elif plain == a:
            plain_occ = 1
        else:
            raise PhiParseError(
                f"module {i}: plain letter degree {plain} must be 0 or {a} "
                f"in monomial {text_hint}"
            )
        m_i = z_total + plain_occ
        if slot["t"] != b * m_i:
            raise PhiParseError(
                f"module {i}: t exponent {slot['t']}, expected {b}*{m_i}"
                f" = {b * m_i} in monomial {text_hint}"
            )
        if m_i == 0:
            raise PhiParseError(
                f"module {i} appears with no complete occurrence "
                f"in monomial {text_hint}"
            )
        for p, q, e in slot["z"]:
            gids.extend([gen_by_modj(i, q).gid] * e)
        if plain_occ:
            gids.extend([gen_by_modj(i, slot["y"]).gid])
    return tuple(sorted(gids))


def _render_sym_mono(sym_mono: tuple) -> str:
    if not sym_mono:
        return "1"
    parts = []
    for sym, e in sym_mono:
        if sym[0] == "z":
            base = f"z{sym[1]}^({sym[2]},{sym[3]})"
        else:
            base = f"{sym[0]}{sym[1]}"
        parts.append(f"{base}^{e}" if e > 1 else base)
    return "*".join(parts)


def parse_phi(text: str) -> AbsPoly:
    """Parse a phi expression into an AbsPoly."""
    expansion = _Parser(text).parse()
    # several symbol monomials can name one generator monomial
    pairs = (
        (_monomial_to_abs(sym_mono, _render_sym_mono(sym_mono)), v)
        for sym_mono, v in expansion.nums.items()
    )
    return AbsPoly._of(add_nums({}, pairs), expansion.den)


def format_phi(p: AbsPoly) -> str:
    """Canonical phi rendering using complete z-symbols; reparses to p."""
    if p.is_zero():
        return "0"
    pieces: list[tuple[str, str]] = []
    for mono, c in p.sorted_terms():
        factors: list[str] = []
        by_module: dict[int, list[int]] = {}
        for gid in mono:
            g = ABS_GENS[gid]
            by_module.setdefault(g.module, []).append(g.j)
        for i in sorted(by_module):
            part = PARTS[i - 1]
            a, b = part.l1 - part.l2, part.l2
            js = by_module[i]
            if b > 0:
                texp = b * len(js)
                factors.append(f"t{i}" + (f"^{texp}" if texp > 1 else ""))
            if a > 0:
                counts: dict[int, int] = {}
                for j in js:
                    counts[j] = counts.get(j, 0) + 1
                for j in sorted(counts):
                    e = counts[j]
                    z = f"z{i}^({a - j},{j})"
                    factors.append(f"({z})^{e}" if e > 1 else z)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        pieces.append(("-" if c < 0 else "+", "*".join(factors)))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
