"""Frozen answers the benchmark checks every run against, and the checks.

These values are the paper's tables, copied here on purpose so that the
benchmark never trusts the program's own reference constants: a change
that edits those constants still fails here.  Each check is one attempted
operation; a crash, a missing answer or a wrong value is one failure.
"""

from __future__ import annotations

import json

# (P, Q, m) per weight: P and Q count generator monomials of weights lam and
# (l1 + 1, l2 - 1), m = P - Q is the multiplicity of the highest weight space
HILBERT: dict[tuple[int, int], tuple[int, int, int]] = {
    (7, 5): (155, 119, 36),
    (6, 6): (185, 155, 30),
    (8, 5): (203, 136, 67),
    (7, 6): (252, 203, 49),
    (9, 5): (284, 188, 96),
    (8, 6): (390, 284, 106),
    (7, 7): (418, 390, 28),
}

# number of independent relations r per weight
RELATIONS: dict[tuple[int, int], int] = {
    (7, 5): 1,
    (6, 6): 2,
    (8, 5): 1,
    (7, 6): 2,
    (9, 5): 2,
    (8, 6): 6,
    (7, 7): 2,
}

WEIGHTS_BY_DEGREE: dict[int, tuple[tuple[int, int], ...]] = {
    12: ((7, 5), (6, 6)),
    13: ((8, 5), (7, 6)),
    14: ((9, 5), (8, 6), (7, 7)),
}

# leading monomial staircases (5, 8 and 15 entries)
STAIRCASE: dict[int, frozenset[str]] = {
    12: frozenset({"u5_0*u8_0", "u5_0*u8_1", "u5_1*u8_0", "u5_1*u8_1", "u7_0^2"}),
    13: frozenset({
        "u5_0*u9_0", "u5_0*u9_1", "u5_0*u9_2", "u5_1*u9_0",
        "u5_1*u9_1", "u5_1*u9_2", "u5_0*u10_0", "u5_1*u10_0",
    }),
    14: frozenset({
        "u5_0*u11_0", "u5_0*u11_1", "u5_0*u11_2", "u5_0*u11_3",
        "u5_1*u11_0", "u5_1*u11_1", "u5_1*u11_2", "u5_1*u11_3",
        "u7_0*u9_0", "u7_0*u9_1", "u7_0*u9_2", "u7_0*u10_0",
        "u8_0^2", "u8_0*u8_1", "u8_1^2",
    }),
}

# (old, new) relation multiplicities per weight and degree
SPLIT: dict[int, dict[tuple[int, int], tuple[int, int]]] = {
    12: {(7, 5): (0, 1), (6, 6): (0, 2)},
    13: {(8, 5): (0, 1), (7, 6): (0, 2)},
    14: {(9, 5): (1, 1), (8, 6): (3, 3), (7, 7): (1, 1)},
}

# generators per total degree
DEGREE_AUDIT: dict[int, int] = {
    1: 2, 2: 3, 3: 4, 4: 6, 5: 2, 6: 4, 7: 2, 8: 4, 9: 4, 10: 1,
}

# bundled relation files: each evaluates to zero and lies in the relation
# space of its weight
BUNDLED: dict[str, tuple[int, int]] = {
    "v75.phi": (7, 5),
    "v66prime.phi": (6, 6),
    "v66second.phi": (6, 6),
}


def key(lam) -> str:
    return f"{lam[0]},{lam[1]}"


Check = tuple[str, bool]


def _get(d, *path):
    for k in path:
        if not isinstance(d, dict) or k not in d:
            return None
        d = d[k]
    return d


def _split_of(items) -> dict | None:
    if not isinstance(items, dict):
        return None
    try:
        return {tuple(int(t) for t in k.split(",")): tuple(v) for k, v in items.items()}
    except (ValueError, TypeError, AttributeError):
        return None


def check_cold_d12(res: dict) -> list[Check]:
    """Checks on one cold degree-12 computation, as reported by the worker."""
    out: list[Check] = []
    audit = _get(res, "audit")
    out.append(("catalog.degree_audit",
                isinstance(audit, dict)
                and {int(k): v for k, v in audit.items()} == DEGREE_AUDIT))
    for lam, want in HILBERT.items():
        got = _get(res, "hilbert", key(lam))
        out.append((f"hilbert.{key(lam)}", got is not None and tuple(got) == want))
    for lam in WEIGHTS_BY_DEGREE[12]:
        P, Q, m = HILBERT[lam]
        h = _get(res, "hwv", key(lam)) or {}
        out.append((f"hwv.{key(lam)}",
                    h.get("P") == P and h.get("rank") == Q and h.get("s") == m
                    and h.get("verified") is True))
        rel = _get(res, "relations", key(lam)) or {}
        out.append((f"relations.{key(lam)}",
                    rel.get("r") == RELATIONS[lam]
                    and rel.get("certificates") == RELATIONS[lam]))
    out.append(("leading.12", _names(_get(res, "leading")) == STAIRCASE[12]))
    out.append(("new.12", _split_of(_get(res, "new")) == SPLIT[12]))
    for name in BUNDLED:
        v = _get(res, "files", name) or {}
        out.append((f"file.{name}", v.get("zero") is True and v.get("member") is True))
    return out


def check_relations_d14(res: dict) -> list[Check]:
    """Checks on one degree-14 computation from a warm trace cache."""
    out: list[Check] = []
    for lam in WEIGHTS_BY_DEGREE[14]:
        got = _get(res, "relations", key(lam))
        out.append((f"relations.{key(lam)}", got == RELATIONS[lam]))
    out.append(("leading.14", _names(_get(res, "leading")) == STAIRCASE[14]))
    out.append(("new.14", _split_of(_get(res, "new")) == SPLIT[14]))
    # the read-side cache must serve every word trace
    out.append(("word_evals_zero", _get(res, "word_evals") == 0))
    return out


def _names(v) -> frozenset | None:
    return frozenset(v) if isinstance(v, list) else None


def check_command(cmd: dict, status: int, stdout: str) -> Check:
    """Check one CLI invocation: its exit status and its JSON payload."""
    name = " ".join(cmd["args"])
    try:
        payload = json.loads(stdout)
    except ValueError:
        return name, False
    if not isinstance(payload, dict):
        return name, False
    kind, exp = cmd["kind"], cmd["expect"]
    if kind == "mult":
        P, Q, m = HILBERT[tuple(exp["lambda"])]
        ok = status == 0 and payload == {"P": P, "Q": Q, "m": m}
    elif kind == "relations":
        lam = tuple(exp["lambda"])
        ok = (status == 0 and payload.get("r") == RELATIONS[lam]
              and payload.get("lambda") == list(lam))
    elif kind == "leading":
        entries = payload.get("entries")
        ok = (status == 0 and isinstance(entries, list)
              and len(entries) == len(STAIRCASE[exp["degree"]])
              and frozenset(e.get("monomial") for e in entries)
              == STAIRCASE[exp["degree"]])
    elif kind == "new":
        items = payload.get("items")
        got = None
        if isinstance(items, list):
            got = {tuple(i["lambda"]): (i["old"], i["new"]) for i in items}
        ok = status == 0 and got == SPLIT[exp["degree"]]
    elif kind == "verify":
        # a relation exits 0 with zero=true; a generated nonzero candidate
        # must exit 1 with zero=false and, for a known weight, membership=false
        zero = exp["zero"]
        member = exp["member"]
        ok = (status == (0 if zero else 1)
              and payload.get("zero") is zero
              and payload.get("membership") is member)
        if exp.get("lambda") is not None:
            ok = ok and payload.get("lambda") == list(exp["lambda"])
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return name, bool(ok)
