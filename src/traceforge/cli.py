"""Command line interface.

Subcommands cover the whole pipeline: the certified generator catalog,
weight multiplicities, highest weight bases, relation spaces with
certificates, verification of candidate identities from files, leading
monomial tables, the old/new split per degree, and a reproduce driver that
checks every frozen reference table and exits nonzero on any mismatch.

Configuration comes from flags first, then TRACEFORGE_* environment
variables, then defaults.  All results are exact; the modular kernel path
is only an acceleration and is always verified exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import genmat
from .cache import CacheStore, digest_text
from .glcat import (
    Partition,
    catalog,
    catalog_digest,
    catalog_json,
    generator_degree_audit,
    hilbert_coeff,
    multiplicity,
)
from .hwv import HwvBasis, hwv_basis, hwv_json, hwv_verify
from .phiparse import PhiParseError, parse_phi
from .relfinder import (
    LAMBDAS_BY_DEGREE,
    leading_analysis,
    membership,
    new_relations,
    relation_space,
    verify_zero,
    verify_zero_abs,
    write_certificates,
)
from .tracelang import NotHomogeneous, TraceParseError, TracelessViolation, parse_trace

# ---------------------------------------------------------------------------
# Frozen reference values.  Every reproduce check compares against these.

EXPECTED_HILBERT: dict[tuple[int, int], tuple[int, int, int]] = {
    (7, 5): (155, 119, 36),
    (6, 6): (185, 155, 30),
    (8, 5): (203, 136, 67),
    (7, 6): (252, 203, 49),
    (9, 5): (284, 188, 96),
    (8, 6): (390, 284, 106),
    (7, 7): (418, 390, 28),
}

EXPECTED_R: dict[tuple[int, int], int] = {
    (7, 5): 1,
    (6, 6): 2,
    (8, 5): 1,
    (7, 6): 2,
    (9, 5): 2,
    (8, 6): 6,
    (7, 7): 2,
}

EXPECTED_LEADING: dict[int, frozenset[str]] = {
    12: frozenset(
        {"u5_0*u8_0", "u5_0*u8_1", "u5_1*u8_0", "u5_1*u8_1", "u7_0^2"}
    ),
    13: frozenset(
        {
            "u5_0*u9_0", "u5_0*u9_1", "u5_1*u9_0", "u5_0*u9_2",
            "u5_1*u9_1", "u5_1*u9_2", "u5_0*u10_0", "u5_1*u10_0",
        }
    ),
    14: frozenset(
        {
            "u5_0*u11_0", "u5_0*u11_1", "u5_1*u11_0", "u5_0*u11_2",
            "u5_1*u11_1", "u5_0*u11_3", "u5_1*u11_2", "u5_1*u11_3",
            "u7_0*u9_0", "u7_0*u9_1", "u7_0*u9_2", "u7_0*u10_0",
            "u8_0^2", "u8_0*u8_1", "u8_1^2",
        }
    ),
}

# (old, new) per weight and degree
EXPECTED_NEW: dict[int, dict[tuple[int, int], tuple[int, int]]] = {
    12: {(7, 5): (0, 1), (6, 6): (0, 2)},
    13: {(8, 5): (0, 1), (7, 6): (0, 2)},
    14: {(9, 5): (1, 1), (8, 6): (3, 3), (7, 7): (1, 1)},
}

EXPECTED_DEGREE_AUDIT = {1: 2, 2: 3, 3: 4, 4: 6, 5: 2, 6: 4, 7: 2, 8: 4, 9: 4, 10: 1}

# bundled candidate files and the weight each one must verify against
BUNDLED_FILES: tuple[tuple[str, tuple[int, int]], ...] = (
    ("v75.phi", (7, 5)),
    ("v66prime.phi", (6, 6)),
    ("v66second.phi", (6, 6)),
)


# ---------------------------------------------------------------------------
# Configuration.


@dataclass
class Config:
    cache_dir: Path
    threads: int
    degree_cap: int
    fmt: str

    def make_cache(self) -> genmat.EvalCache:
        return genmat.EvalCache(CacheStore(self.cache_dir))


def _env(name: str) -> str | None:
    return os.environ.get("TRACEFORGE_" + name)


def build_config(args: argparse.Namespace) -> Config:
    def arg(name):
        return getattr(args, name, None)

    cache_dir = arg("cache_dir") or _env("CACHE_DIR") or "./.tracecache"
    threads = arg("threads") if arg("threads") is not None else _env("THREADS")
    degree_cap = (
        arg("degree_cap") if arg("degree_cap") is not None else _env("DEGREE_CAP")
    )
    fmt = arg("format") or _env("FORMAT") or "text"
    if fmt not in ("json", "text"):
        raise SystemExit(f"unknown format {fmt!r} (expected json or text)")
    return Config(
        cache_dir=Path(cache_dir),
        threads=int(threads) if threads is not None else 1,
        degree_cap=int(degree_cap) if degree_cap is not None else 14,
        fmt=fmt,
    )


def parse_lambda(text: str, cap: int) -> Partition:
    try:
        l1, l2 = (int(t) for t in text.split(","))
        lam = Partition.of(l1, l2)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"bad --lambda {text!r}: {exc}")
    if lam.l1 + lam.l2 > cap:
        raise SystemExit(
            f"lambda {tuple(lam)} exceeds the degree cap {cap}; "
            f"raise --degree-cap to allow it"
        )
    return lam


def emit(payload: dict, lines: list[str], cfg: Config) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (payload, text lines, ok).


def cmd_catalog(cfg: Config, args) -> tuple[dict, list[str], bool]:
    cache = cfg.make_cache()
    catalog(cache)
    payload = catalog_json()
    audit = generator_degree_audit()
    ok = audit == EXPECTED_DEGREE_AUDIT
    payload["degree_audit_ok"] = ok
    lines = []
    for m in payload["modules"]:
        lines.append(
            f"W({m['partition'][0]},{m['partition'][1]})"
            f"  module {m['index']:2d}  dim {m['dimension']}  hwv {m['hwv']}"
        )
    lines.append(f"generators: {len(payload['generators'])}")
    lines.append(
        "degree audit: "
        + " ".join(f"{d}:{n}" for d, n in sorted(audit.items()))
        + ("  [ok]" if ok else "  [MISMATCH]")
    )
    return payload, lines, ok


def cmd_mult(cfg: Config, args) -> tuple[dict, list[str], bool]:
    lam = parse_lambda(args.lam, cfg.degree_cap)
    P = hilbert_coeff(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 else 0
    m = multiplicity(lam)
    payload = {"m": m, "P": P, "Q": Q}
    lines = [f"lambda=({lam.l1},{lam.l2})  P={P}  Q={Q}  m={m}"]
    return payload, lines, True


def cmd_hwv(cfg: Config, args) -> tuple[dict, list[str], bool]:
    lam = parse_lambda(args.lam, cfg.degree_cap)
    cache = cfg.make_cache()
    basis = hwv_basis(lam, threads=cfg.threads)
    report = hwv_verify(basis, evaluate=not args.no_eval, cache=cache)
    payload = hwv_json(basis)
    payload["verified"] = report.ok
    payload["failures"] = list(report.failures)
    lines = [
        f"lambda=({lam.l1},{lam.l2})  P={basis.P}  Q={basis.Q}"
        f"  rank={basis.alpha_rank}  s={basis.s}",
        f"verified: {report.ok}"
        + (f"  failures: {report.failures}" if report.failures else ""),
    ]
    return payload, lines, report.ok


def cmd_relations(cfg: Config, args) -> tuple[dict, list[str], bool]:
    lam = parse_lambda(args.lam, cfg.degree_cap)
    cache = cfg.make_cache()
    space = relation_space(
        lam,
        mode=args.mode,
        cache=cache,
        threads=cfg.threads,
    )
    cert_keys = write_certificates(space, cache.store)
    rep = leading_analysis(space)
    payload = {
        "lambda": [lam.l1, lam.l2],
        "r": space.r,
        "mode": args.mode,
        "from_cache": space.from_cache,
        "zeta": [
            [f"{x.numerator}/{x.denominator}" for x in z] for z in space.zeta
        ],
        "leading": list(rep.names),
        "certificates": cert_keys,
    }
    lines = [
        f"lambda=({lam.l1},{lam.l2})  r={space.r}  mode={args.mode}"
        f"  cached={space.from_cache}",
        f"leading monomials: {', '.join(rep.names) if rep.names else '(none)'}",
        f"certificates written: {len(cert_keys)}",
    ]
    return payload, lines, True


def cmd_verify(cfg: Config, args) -> tuple[dict, list[str], bool]:
    grammar = "trace" if args.trace else "phi"
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    try:
        parsed = parse_trace(text) if args.trace else parse_phi(text)
    except (PhiParseError, TraceParseError, TracelessViolation) as exc:
        raise SystemExit(f"bad {grammar} file {args.file}: {exc}")
    cache = cfg.make_cache()
    member = None
    lam = None
    if args.trace:
        zrep = verify_zero(parsed, cache)
    else:
        try:
            lam = parsed.bidegree()
        except NotHomogeneous:
            pass
        zrep = verify_zero_abs(parsed, cache)
        known = {tuple(l) for ls in LAMBDAS_BY_DEGREE.values() for l in ls}
        if lam in known:
            space = relation_space(
                Partition(*lam),
                mode="modular",
                cache=cache,
                threads=cfg.threads,
            )
            member = membership(parsed, space)
    ok = zrep.zero and member in (True, None)
    payload = {
        "file": args.file,
        "grammar": grammar,
        "zero": zrep.zero,
        "residual_terms": zrep.residual_terms,
        "residual_sample": [list(t) for t in zrep.residual_sample],
        "residual_digest": zrep.digest,
        "membership": member,
        "lambda": list(lam) if lam else None,
    }
    lines = [
        f"file: {args.file}  grammar: {grammar}",
        f"evaluates to zero: {zrep.zero}"
        + ("" if zrep.zero else f"  (residual terms: {zrep.residual_terms})"),
    ]
    if member is not None:
        lines.append(f"membership in the relation space: {member}")
    if not zrep.zero and zrep.residual_sample:
        lines.append("residual sample:")
        for mono, c in zrep.residual_sample:
            lines.append(f"  {c} * [{mono}]")
    return payload, lines, ok


def _spaces_for_degree(degree: int, cfg: Config, cache) -> list:
    if degree not in LAMBDAS_BY_DEGREE:
        raise SystemExit(f"no relation tables for degree {degree}")
    if degree > cfg.degree_cap:
        raise SystemExit(f"degree {degree} exceeds the cap {cfg.degree_cap}")
    return [
        relation_space(
            lam,
            mode="modular",
            cache=cache,
            threads=cfg.threads,
        )
        for lam in LAMBDAS_BY_DEGREE[degree]
    ]


def cmd_leading(cfg: Config, args) -> tuple[dict, list[str], bool]:
    cache = cfg.make_cache()
    spaces = _spaces_for_degree(args.degree, cfg, cache)
    rep = leading_analysis(spaces)
    ok = set(rep.names) == set(EXPECTED_LEADING[args.degree])
    payload = {
        "degree": args.degree,
        "count": len(rep.entries),
        "entries": [
            {
                "bidegree": list(e.bidegree),
                "monomial": e.name,
                "source": [e.source_lambda.l1, e.source_lambda.l2],
                "vector": e.source_vector,
                "orbit_j": e.orbit_j,
            }
            for e in rep.entries
        ],
        "absorbed": len(rep.absorbed),
        "matches_reference": ok,
    }
    lines = [f"degree {args.degree}: {len(rep.entries)} leading monomials, "
             f"{len(rep.absorbed)} orbit vectors absorbed"]
    for e in rep.entries:
        lines.append(
            f"  {e.name:14s} from W({e.source_lambda.l1},{e.source_lambda.l2})"
            f" vector {e.source_vector} ladder {e.orbit_j}"
        )
    lines.append(f"matches reference list: {ok}")
    return payload, lines, ok


def cmd_new(cfg: Config, args) -> tuple[dict, list[str], bool]:
    cache = cfg.make_cache()
    if args.degree not in LAMBDAS_BY_DEGREE:
        raise SystemExit(f"no relation tables for degree {args.degree}")
    if args.degree > cfg.degree_cap:
        raise SystemExit(f"degree {args.degree} exceeds the cap {cfg.degree_cap}")
    rep = new_relations(
        args.degree, mode="modular", cache=cache, threads=cfg.threads
    )
    got = {tuple(i.lam): (i.old, i.new) for i in rep.items}
    ok = got == EXPECTED_NEW[args.degree]
    payload = {
        "degree": args.degree,
        "items": [
            {
                "lambda": [i.lam.l1, i.lam.l2],
                "r": i.r,
                "old": i.old,
                "new": i.new,
            }
            for i in rep.items
        ],
        "decomposition": rep.decomposition,
        "matches_reference": ok,
    }
    lines = [f"degree {args.degree}:"]
    for i in rep.items:
        lines.append(
            f"  W({i.lam.l1},{i.lam.l2}): r={i.r}  from lower degrees={i.old}"
            f"  new={i.new}"
        )
    lines.append(f"new relations module: {rep.decomposition}")
    lines.append(f"matches reference: {ok}")
    return payload, lines, ok


def _bundled_text(name: str) -> str:
    from importlib import resources

    return (
        resources.files("traceforge").joinpath("data", name).read_text()
    )


# version of the hwv_verify check; a new check must not reuse old verdicts
HWV_CHECK_SCHEMA = 2


def hwv_verdict_key(basis: HwvBasis) -> str:
    """Cache key of the hwv_verify verdict for a basis: the check schema,
    the weight, the catalog digest and a digest of the basis itself."""
    lam = basis.lam
    basis_digest = digest_text(json.dumps(hwv_json(basis), sort_keys=True))
    return (
        f"hwvcheck:v{HWV_CHECK_SCHEMA}:{lam.l1},{lam.l2}:"
        f"{catalog_digest()}:{basis_digest}"
    )


def cmd_reproduce(cfg: Config, args) -> tuple[dict, list[str], bool]:
    cache = cfg.make_cache()
    store = cache.store
    tables: dict[str, dict] = {}
    lines: list[str] = []
    last = time.perf_counter()

    def record(name: str, ok: bool, detail: dict, line: str) -> None:
        # seconds: wall time of this table, since the previous one was recorded
        nonlocal last
        now = time.perf_counter()
        tables[name] = {"ok": ok, **detail, "seconds": round(now - last, 3)}
        last = now
        lines.append(("[PASS] " if ok else "[FAIL] ") + line)

    # 1. catalog certification and generator degree audit
    catalog(cache)
    audit = generator_degree_audit()
    record(
        "catalog",
        audit == EXPECTED_DEGREE_AUDIT,
        {"degree_audit": {str(k): v for k, v in audit.items()}},
        "catalog certified; generator degree audit "
        + " ".join(f"{d}:{n}" for d, n in sorted(audit.items())),
    )

    # 2. Hilbert table
    got_h = {}
    for lam_t in EXPECTED_HILBERT:
        lam = Partition(*lam_t)
        P = hilbert_coeff(lam)
        Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1))
        got_h[lam_t] = (P, Q, multiplicity(lam))
    record(
        "hilbert",
        got_h == EXPECTED_HILBERT,
        {"rows": {f"{k[0]},{k[1]}": list(v) for k, v in got_h.items()}},
        "multiplicity table (P, Q, m) for all seven weights",
    )

    # 3. highest weight bases, verified by evaluation (verdict cached)
    hwv_ok = True
    hwv_rows = {}
    for lam_t, (P, Q, m) in EXPECTED_HILBERT.items():
        lam = Partition(*lam_t)
        basis = hwv_basis(lam, threads=cfg.threads)
        row_ok = basis.alpha_rank == Q and basis.s == m and basis.P == P
        vkey = hwv_verdict_key(basis)
        verdict = store.get_json(vkey) if store else None
        if row_ok and not (isinstance(verdict, dict) and verdict.get("ok")):
            rep = hwv_verify(basis, evaluate=True, cache=cache)
            row_ok = rep.ok
            if rep.ok and store:
                store.put_json(vkey, {"ok": True})
        hwv_rows[f"{lam_t[0]},{lam_t[1]}"] = {
            "rank": basis.alpha_rank,
            "s": basis.s,
            "ok": row_ok,
        }
        hwv_ok = hwv_ok and row_ok
    record(
        "hwv",
        hwv_ok,
        {"rows": hwv_rows},
        "highest weight bases: rank = Q and s = m for all seven weights",
    )

    # 4. relation spaces and certificates
    spaces = {}
    rel_rows = {}
    rel_ok = True
    for lam_t, r_expect in EXPECTED_R.items():
        lam = Partition(*lam_t)
        space = relation_space(
            lam,
            mode="modular",
            cache=cache,
            threads=cfg.threads,
        )
        spaces[lam_t] = space
        if store:
            write_certificates(space, store)
        rel_rows[f"{lam_t[0]},{lam_t[1]}"] = {
            "r": space.r,
            "expected": r_expect,
            "from_cache": space.from_cache,
        }
        rel_ok = rel_ok and space.r == r_expect
    record(
        "relations",
        rel_ok,
        {"rows": rel_rows},
        "relation multiplicities r for all seven weights",
    )

    # 5. leading monomial tables per degree
    lead_ok = True
    lead_rows = {}
    for degree, lams in LAMBDAS_BY_DEGREE.items():
        rep = leading_analysis([spaces[tuple(l)] for l in lams])
        ok = set(rep.names) == set(EXPECTED_LEADING[degree])
        lead_rows[str(degree)] = {
            "count": len(rep.entries),
            "names": sorted(rep.names),
            "ok": ok,
        }
        lead_ok = lead_ok and ok
    record(
        "leading",
        lead_ok,
        {"rows": lead_rows},
        "leading monomial staircases at degrees 12, 13, 14 (5, 8, 15 entries)",
    )

    # 6. old/new split per degree
    new_ok = True
    new_rows = {}
    for degree in LAMBDAS_BY_DEGREE:
        rep = new_relations(
            degree, mode="modular", cache=cache, threads=cfg.threads
        )
        got = {tuple(i.lam): (i.old, i.new) for i in rep.items}
        ok = got == EXPECTED_NEW[degree]
        new_rows[str(degree)] = {
            "items": {
                f"{k[0]},{k[1]}": list(v) for k, v in got.items()
            },
            "decomposition": rep.decomposition,
            "ok": ok,
        }
        new_ok = new_ok and ok
    record(
        "new",
        new_ok,
        {"rows": new_rows},
        "split of relations into consequences and new generators per degree",
    )

    # 7. bundled candidate files (verdicts cached by content digest)
    bundle_ok = True
    bundle_rows = {}
    for name, lam_t in BUNDLED_FILES:
        text = _bundled_text(name)
        fkey = (
            f"filecheck:{name}:{digest_text(text)}:{catalog_digest()}"
        )
        verdict = store.get_json(fkey) if store else None
        if not isinstance(verdict, dict):
            cand = parse_phi(text)
            zrep = verify_zero_abs(cand, cache)
            member = membership(cand, spaces[lam_t])
            verdict = {"zero": zrep.zero, "member": member}
            if store and zrep.zero and member:
                store.put_json(fkey, verdict)
        ok = verdict["zero"] and verdict["member"]
        bundle_rows[name] = {**verdict, "lambda": list(lam_t)}
        bundle_ok = bundle_ok and ok
    record(
        "bundled",
        bundle_ok,
        {"rows": bundle_rows},
        "bundled relation files evaluate to zero and lie in the "
        "computed relation spaces",
    )

    all_ok = all(t["ok"] for t in tables.values())
    # fresh work (evaluations, products, cache misses and writes) and reuse
    stats = {
        "word_evals": cache.stats.word_evals,
        "mono_products": cache.stats.mono_products,
        "gen_products": cache.stats.gen_products,
        "disk_hits": cache.stats.disk_hits,
        "cache_hits": store.stats.hits,
        "cache_misses": store.stats.misses,
        "cache_corrupt": store.stats.corrupt,
        "cache_writes": store.stats.writes,
    }
    payload = {"tables": tables, "pass": all_ok, "stats": stats}
    lines.append("stats: " + " ".join(f"{k}={v}" for k, v in stats.items()))
    lines.append("ALL TABLES PASS" if all_ok else "SOME TABLES FAILED")
    return payload, lines, all_ok


# ---------------------------------------------------------------------------
# Argument parsing.


def make_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand;
    # SUPPRESS keeps the subparser from clobbering a value given up front
    S = argparse.SUPPRESS
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cache-dir", default=S, help="cache directory (default ./.tracecache)")
    shared.add_argument("--threads", type=int, default=S, help="worker threads for block computations")
    shared.add_argument("--degree-cap", type=int, default=S, help="largest total degree allowed (default 14)")
    shared.add_argument("--format", choices=["json", "text"], default=S, help="output format")

    p = argparse.ArgumentParser(
        prog="traceforge",
        parents=[shared],
        description=(
            "Exact computation of the defining relations among the "
            "generators of the algebra of invariants of two generic "
            "traceless 4x4 matrices."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", parents=[shared], help="print the certified generator catalog")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("mult", parents=[shared], help="multiplicity and dimension counts for a weight")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="P,Q")
    sp.set_defaults(func=cmd_mult)

    sp = sub.add_parser("hwv", parents=[shared], help="highest weight basis for a weight")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="P,Q")
    sp.add_argument("--no-eval", action="store_true", help="skip the evaluation checks")
    sp.set_defaults(func=cmd_hwv)

    sp = sub.add_parser("relations", parents=[shared], help="relation space for a weight")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="P,Q")
    sp.add_argument("--mode", choices=["exact", "modular"], default="modular")
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("verify", parents=[shared], help="verify a candidate identity from a file")
    sp.add_argument("--file", required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--phi", action="store_true", help="parse as a generator-notation expression (default)")
    g.add_argument("--trace", action="store_true", help="parse as a trace expression")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("leading", parents=[shared], help="leading monomial staircase for a degree")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_leading)

    sp = sub.add_parser("new", parents=[shared], help="split relations of a degree into old and new")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_new)

    sp = sub.add_parser("reproduce", parents=[shared], help="check every frozen reference table")
    sp.add_argument(
        "--paper-tables",
        action="store_true",
        help="run the full reference table suite (the default and only suite)",
    )
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    cfg = build_config(args)
    payload, lines, ok = args.func(cfg, args)
    emit(payload, lines, cfg)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
