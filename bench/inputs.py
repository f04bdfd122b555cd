"""Seeded inputs of each workload.

The same seed gives the same plan.  A seed changes the order of independent
steps and the generated candidates, never how much work a unit holds, so
runs with different seeds are comparable.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from expected import BUNDLED, HILBERT, WEIGHTS_BY_DEGREE

# shared flags of every CLI invocation: one thread, JSON payloads
CLI_FLAGS = ("--threads", "1", "--format", "json")


def cold_d12_plan(seed: int) -> dict:
    """The seed orders the bundled files.  Weights keep the paper's order:
    the order of the hwv and relation steps changes peak memory (by 10% at
    degree 12, 15% at degree 14), which would make seeds incomparable, and
    relations_d14 has no seeded input for the same reason."""
    files = list(BUNDLED)
    random.Random(seed).shuffle(files)
    return {"files": files}


# -- warm_cli ----------------------------------------------------------------

def monomial_terms(text: str) -> list[str]:
    """Top-level terms of a phi file that are a single generator monomial:
    no parentheses, so no sums.  Returned without sign or coefficient."""
    out = []
    depth = 0
    for line in text.splitlines():
        m = re.fullmatch(r"\s*[+-]\s*(\d+\s*\*\s*)?([^()+-]+?)\s*", line)
        if depth == 0 and m:
            out.append(m.group(2).replace(" ", ""))
        depth += line.count("(") - line.count(")")
    return out


def perturbed_phi(rng: random.Random, base: str, donors: list[str]) -> str:
    """A relation plus k times a generator monomial of the same weight.

    The relation evaluates to zero and every generator monomial evaluates to
    a nonzero polynomial, so the sum is nonzero and outside the relation
    space, whatever monomial and k the seed picks."""
    k = rng.randint(1, 9)
    return base.rstrip() + f"\n+ {k}*{rng.choice(donors)}\n"


def _cayley_hamilton(a: str, m: str) -> list[tuple[Fraction, list[str]]]:
    """Cayley-Hamilton for a traceless 4x4 matrix A, multiplied by a word M:

    tr(A^4 M) = 1/2 tr(A^2) tr(A^2 M) + 1/3 tr(A^3) tr(A M)
                - (1/8 tr(A^2)^2 - 1/4 tr(A^4)) tr(M)
    """
    h = Fraction(1, 2)
    return [
        (Fraction(1), [a * 4 + m]),
        (-h, [a * 2, a * 2 + m]),
        (Fraction(-1, 3), [a * 3, a + m]),
        (Fraction(1, 8), [a * 2, a * 2, m]),
        (Fraction(-1, 4), [a * 4, m]),
    ]


def format_trace(terms: list[tuple[Fraction, list[str]]]) -> str:
    parts = []
    for c, words in terms:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        coeff = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        parts.append(f"{sign} {coeff}*" + "*".join(f"tr({w})" for w in words))
    return "\n".join(parts) + "\n"


def trace_identity(rng: random.Random) -> list[tuple[Fraction, list[str]]]:
    """A seeded combination of two Cayley-Hamilton identities: a trace
    expression that is not zero as written but evaluates to zero."""
    terms = []
    for _ in range(2):
        a = rng.choice("xy")
        m = "".join(rng.choice("xy") for _ in range(rng.randint(2, 3)))
        c = Fraction(rng.randint(1, 5))
        terms += [(c * t, ws) for t, ws in _cayley_hamilton(a, m)]
    return terms


def warm_cli_plan(seed: int, data_dir: str, bundled_text: dict[str, str]) -> dict:
    """The seeded command sequence of one warm_cli pass, and the candidate
    files it verifies (name -> text).  Every pass holds the same multiset of
    command kinds, so the seed changes order and candidates, not cost."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    cmds: list[dict] = []

    def add(kind: str, args: list[str], **expect) -> None:
        cmds.append({"kind": kind, "args": args, "expect": expect})

    for lam in HILBERT:
        add("mult", ["mult", "--lambda", f"{lam[0]},{lam[1]}"], **{"lambda": list(lam)})
    for degree in (12, 13):
        for lam in WEIGHTS_BY_DEGREE[degree]:
            add("relations", ["relations", "--lambda", f"{lam[0]},{lam[1]}",
                              "--mode", "modular"], **{"lambda": list(lam)})
        add("leading", ["leading", "--degree", str(degree)], degree=degree)
        add("new", ["new", "--degree", str(degree)], degree=degree)
    for name, lam in BUNDLED.items():
        add("verify", ["verify", "--file", f"{data_dir}/{name}"],
            zero=True, member=True, **{"lambda": list(lam)})
    # one perturbed candidate per weight, built on the first bundled file of
    # that weight; donors come from every bundled file of the weight
    bases: dict[tuple[int, int], str] = {}
    for name, lam in BUNDLED.items():
        bases.setdefault(lam, name)
    for i, (lam, name) in enumerate(bases.items()):
        donors = [t for other, olam in BUNDLED.items() if olam == lam
                  for t in monomial_terms(bundled_text[other])]
        fname = f"perturbed{i}.phi"
        files[fname] = perturbed_phi(rng, bundled_text[name], donors)
        add("verify", ["verify", "--file", fname],
            zero=False, member=False, **{"lambda": list(lam)})
    identity = trace_identity(rng)
    files["identity.trace"] = format_trace(identity)
    add("verify", ["verify", "--trace", "--file", "identity.trace"],
        zero=True, member=None)
    # the identity plus k tr(xx) tr(yy), a product of two nonzero traces
    k = Fraction(rng.randint(1, 9))
    files["nonzero.trace"] = format_trace(identity + [(k, ["xx", "yy"])])
    add("verify", ["verify", "--trace", "--file", "nonzero.trace"],
        zero=False, member=None)
    rng.shuffle(cmds)
    return {"commands": cmds, "files": files}
