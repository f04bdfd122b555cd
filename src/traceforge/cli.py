"""Command line interface.

Subcommands cover the whole pipeline: the certified generator catalog,
weight multiplicities, highest weight bases, relation spaces with
certificates, verification of candidate identities from files, leading
monomial tables, the old/new split per degree, and a reproduce driver that
checks every frozen reference table and exits nonzero on any mismatch.

Each subcommand parses its arguments and runs a check on the one cache of
the process; reproduce runs the same checks against the frozen tables.  The
verify check keeps its verdicts in the cache directory.

Each setting comes from its flag, else from its default; the cache
directory may also come from TRACEFORGE_CACHE_DIR.  All results are exact:
a relation space is found mod p and each of its relation vectors is proven
zero exactly before it is reported or stored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cached_property
from pathlib import Path

from . import genmat
from .cache import CacheStore, digest_text
from .glcat import (
    Partition,
    catalog_digest,
    catalog_json,
    generator_degree_audit,
    hilbert_coeff,
    multiplicity,
)
from .hwv import hwv_basis, hwv_json, hwv_verify
from .nullspace import NullStreamError
from .packedpoly import PackedCapacityError
from .phiparse import PhiParseError, parse_phi
from .relfinder import (
    LAMBDAS_BY_DEGREE,
    RELSPACE_SCHEMA,
    ZERO_REPORT,
    evaluate_abs,
    leading_analysis,
    membership,
    new_relations,
    relation_space,
    verify_zero,
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


class Config:
    """The settings of one run."""

    def __init__(self, cache_dir: Path, degree_cap: int, fmt: str) -> None:
        self.cache_dir = cache_dir
        self.degree_cap = degree_cap
        self.fmt = fmt

    @cached_property
    def cache(self) -> genmat.EvalCache:
        """The one evaluation cache of the process, built on first use."""
        try:
            store = CacheStore(self.cache_dir)
        except OSError as exc:
            raise SystemExit(f"cannot use cache dir {self.cache_dir}: {exc}")
        return genmat.EvalCache(store)


def build_config(args: argparse.Namespace) -> Config:
    cache_dir = (
        getattr(args, "cache_dir", None)
        or os.environ.get("TRACEFORGE_CACHE_DIR")
        or "./.tracecache"
    )
    return Config(
        cache_dir=Path(cache_dir),
        degree_cap=getattr(args, "degree_cap", 14),
        fmt=getattr(args, "format", "text"),
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


def parse_degree(degree: int, cap: int) -> int:
    if degree not in LAMBDAS_BY_DEGREE:
        raise SystemExit(f"no relation tables for degree {degree}")
    if degree > cap:
        raise SystemExit(f"degree {degree} exceeds the cap {cap}")
    return degree


def emit(payload: dict, lines: list[str], cfg: Config) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Checks.  Each takes the cache and parsed inputs and returns (payload, text
# lines, ok); the subcommands and reproduce share them.

Result = tuple[dict, list[str], bool]

# version of the stored verify verdict; a verdict of another check or shape
# must not be read under the same key
VERIFY_CHECK_SCHEMA = 1


def verify_verdict_key(text: str, trace: bool) -> str:
    """Cache key of the verify verdict for a file text (not its path).  A
    phi candidate goes through the catalog and a relation space, so its key
    holds their digest and schema; a trace expression is evaluated as is."""
    context = "trace" if trace else f"phi:{catalog_digest()}:{RELSPACE_SCHEMA}"
    return f"verifycheck:v{VERIFY_CHECK_SCHEMA}:{context}:{digest_text(text)}"


def catalog_check(cache: genmat.EvalCache) -> Result:
    payload = catalog_json(cache)
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


def mult_check(lam: Partition) -> Result:
    P = hilbert_coeff(lam)
    Q = hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)) if lam.l2 else 0
    m = multiplicity(lam)
    payload = {"m": m, "P": P, "Q": Q}
    lines = [f"lambda=({lam.l1},{lam.l2})  P={P}  Q={Q}  m={m}"]
    return payload, lines, True


def hwv_check(cache: genmat.EvalCache, lam: Partition) -> Result:
    """The basis of weight lam and its hwv_verify verdict.  The check
    evaluates nothing and the basis is printed, so nothing is stored."""
    basis = hwv_basis(lam, cache=cache)
    rep = hwv_verify(basis, cache=cache)
    ok, failures = rep.ok, list(rep.failures)
    payload = hwv_json(basis)
    payload["verified"] = ok
    payload["failures"] = failures
    lines = [
        f"lambda=({lam.l1},{lam.l2})  P={basis.P}  Q={basis.Q}"
        f"  rank={basis.alpha_rank}  s={basis.s}",
        f"verified: {ok}" + (f"  failures: {tuple(failures)}" if failures else ""),
    ]
    return payload, lines, ok


def relations_check(cache: genmat.EvalCache, lam: Partition) -> Result:
    """The relation space of weight lam, its certificates and leading
    monomials.  The payload and the text name the one route, "modular"."""
    space = relation_space(lam, cache=cache)
    cert_keys = write_certificates(space, cache.store)
    rep = leading_analysis(space)
    payload = {
        "lambda": [lam.l1, lam.l2],
        "r": space.r,
        "mode": "modular",
        "from_cache": space.from_cache,
        "zeta": [
            [f"{x.numerator}/{x.denominator}" for x in z] for z in space.zeta
        ],
        "leading": list(rep.names),
        "certificates": cert_keys,
    }
    lines = [
        f"lambda=({lam.l1},{lam.l2})  r={space.r}  mode=modular"
        f"  cached={space.from_cache}",
        f"leading monomials: {', '.join(rep.names) if rep.names else '(none)'}",
        f"certificates written: {len(cert_keys)}",
    ]
    return payload, lines, True


_KNOWN_LAMBDAS = {tuple(l) for ls in LAMBDAS_BY_DEGREE.values() for l in ls}


def verify_check(
    cache: genmat.EvalCache, name: str, text: str, trace: bool = False
) -> Result:
    """Does the candidate in text, named name in the output, evaluate to
    zero, and does it lie in the relation space of its weight?  The verdict
    is stored under verify_verdict_key whatever it says: the key holds
    everything that determines it, so a failure is as final as a pass.  The
    key is of the text, and only a parsed text has a verdict, so a stored
    verdict is read without parsing."""
    grammar = "trace" if trace else "phi"

    def evaluate() -> dict:
        try:
            parsed = parse_trace(text) if trace else parse_phi(text)
        except (PhiParseError, TraceParseError, TracelessViolation) as exc:
            raise SystemExit(f"bad {grammar} file {name}: {exc}")
        member = None
        lam = None
        if trace:
            zrep = verify_zero(parsed, cache)
        else:
            try:
                lam = parsed.bidegree()
            except NotHomogeneous:
                pass
            # the relation space first: a member of it is zero with nothing
            # evaluated, and any other candidate is evaluated
            if lam in _KNOWN_LAMBDAS:
                space = relation_space(Partition(*lam), cache=cache)
                member = membership(parsed, space)
            zrep = ZERO_REPORT if member else evaluate_abs(parsed, cache)
        return {
            "grammar": grammar,
            "zero": zrep.zero,
            "residual_terms": zrep.residual_terms,
            "residual_sample": [list(t) for t in zrep.residual_sample],
            "residual_digest": zrep.digest,
            "membership": member,
            "lambda": list(lam) if lam else None,
        }

    store, key = cache.store, verify_verdict_key(text, trace)
    verdict = store.get_json(key) if store is not None else None
    if not isinstance(verdict, dict):
        verdict = evaluate()
        if store is not None:
            store.put_json(key, verdict)
    payload = {"file": name, **verdict}
    zero, member = verdict["zero"], verdict["membership"]
    lines = [
        f"file: {name}  grammar: {grammar}",
        f"evaluates to zero: {zero}"
        + ("" if zero else f"  (residual terms: {verdict['residual_terms']})"),
    ]
    if member is not None:
        lines.append(f"membership in the relation space: {member}")
    if not zero and verdict["residual_sample"]:
        lines.append("residual sample:")
        for mono, c in verdict["residual_sample"]:
            lines.append(f"  {c} * [{mono}]")
    return payload, lines, zero and member in (True, None)


def leading_check(cache: genmat.EvalCache, degree: int) -> Result:
    spaces = [relation_space(lam, cache=cache) for lam in LAMBDAS_BY_DEGREE[degree]]
    rep = leading_analysis(spaces)
    ok = set(rep.names) == set(EXPECTED_LEADING[degree])
    payload = {
        "degree": degree,
        "count": len(rep.entries),
        "entries": [
            {"bidegree": list(e.bidegree), "monomial": e.name,
             "source": [e.source_lambda.l1, e.source_lambda.l2],
             "vector": e.source_vector, "orbit_j": e.orbit_j}
            for e in rep.entries
        ],
        "absorbed": len(rep.absorbed),
        "matches_reference": ok,
    }
    lines = [f"degree {degree}: {len(rep.entries)} leading monomials, "
             f"{len(rep.absorbed)} orbit vectors absorbed"]
    for e in rep.entries:
        lines.append(
            f"  {e.name:14s} from W({e.source_lambda.l1},{e.source_lambda.l2})"
            f" vector {e.source_vector} ladder {e.orbit_j}"
        )
    lines.append(f"matches reference list: {ok}")
    return payload, lines, ok


def new_check(cache: genmat.EvalCache, degree: int) -> Result:
    rep = new_relations(degree, cache=cache)
    got = {tuple(i.lam): (i.old, i.new) for i in rep.items}
    ok = got == EXPECTED_NEW[degree]
    payload = {
        "degree": degree,
        "items": [
            {"lambda": [i.lam.l1, i.lam.l2], "r": i.r, "old": i.old, "new": i.new}
            for i in rep.items
        ],
        "decomposition": rep.decomposition,
        "matches_reference": ok,
    }
    lines = [f"degree {degree}:"]
    for i in rep.items:
        lines.append(
            f"  W({i.lam.l1},{i.lam.l2}): r={i.r}  from lower degrees={i.old}"
            f"  new={i.new}"
        )
    lines.append(f"new relations module: {rep.decomposition}")
    lines.append(f"matches reference: {ok}")
    return payload, lines, ok


# ---------------------------------------------------------------------------
# Subcommands: parse the arguments, then run the check on the one cache.


def cmd_catalog(cfg: Config, args) -> Result:
    return catalog_check(cfg.cache)


def cmd_mult(cfg: Config, args) -> Result:
    return mult_check(parse_lambda(args.lam, cfg.degree_cap))


def cmd_hwv(cfg: Config, args) -> Result:
    lam = parse_lambda(args.lam, cfg.degree_cap)
    return hwv_check(cfg.cache, lam)


def cmd_relations(cfg: Config, args) -> Result:
    lam = parse_lambda(args.lam, cfg.degree_cap)
    return relations_check(cfg.cache, lam)


def cmd_verify(cfg: Config, args) -> Result:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    return verify_check(cfg.cache, args.file, text, trace=args.trace)


def cmd_leading(cfg: Config, args) -> Result:
    degree = parse_degree(args.degree, cfg.degree_cap)
    return leading_check(cfg.cache, degree)


def cmd_new(cfg: Config, args) -> Result:
    degree = parse_degree(args.degree, cfg.degree_cap)
    return new_check(cfg.cache, degree)


def _bundled_text(name: str) -> str:
    from importlib import resources

    return resources.files("traceforge").joinpath("data", name).read_text()


def _lam_key(lam) -> str:
    return f"{lam[0]},{lam[1]}"


def cmd_reproduce(cfg: Config, args) -> Result:
    cache = cfg.cache
    tables: dict[str, dict] = {}
    lines: list[str] = []
    # seconds: wall time spent in the checks of each table
    spent: dict[str, float] = {}

    def timed(name: str, check, *args, **kwargs):
        start = time.perf_counter()
        out = check(*args, **kwargs)
        spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
        return out

    def record(name: str, ok: bool, line: str, **detail) -> None:
        tables[name] = {"ok": ok, **detail, "seconds": round(spent[name], 3)}
        lines.append(("[PASS] " if ok else "[FAIL] ") + line)

    def rows_ok(rows: dict) -> bool:
        return all(row["ok"] for row in rows.values())

    # 1. catalog certification and generator degree audit
    doc, _, ok = timed("catalog", catalog_check, cache)
    audit = doc["degree_audit"]
    counts = " ".join(f"{d}:{n}" for d, n in audit.items())
    record("catalog", ok, f"catalog certified; generator degree audit {counts}",
           degree_audit=audit)

    # 2. Hilbert table
    got = {}
    for lam in EXPECTED_HILBERT:
        doc, _, _ = timed("hilbert", mult_check, Partition(*lam))
        got[lam] = (doc["P"], doc["Q"], doc["m"])
    record("hilbert", got == EXPECTED_HILBERT,
           "multiplicity table (P, Q, m) for all seven weights",
           rows={_lam_key(k): list(v) for k, v in got.items()})

    # 3, 4 and 7 run in one pass per weight, while the cache holds that
    # weight's generator-monomial products: the highest weight basis,
    # checked exactly (its evaluated side rests on the catalog
    # certificate), the relation space and its certificates, and the
    # bundled candidate files of the weight, which are zero with nothing
    # evaluated when they lie in the relation space the cache now holds
    hwv_rows, rel_rows, file_rows = {}, {}, {}
    bundle_ok = True
    for lam, want in EXPECTED_HILBERT.items():
        weight, key = Partition(*lam), _lam_key(lam)
        doc, _, ok = timed("hwv", hwv_check, cache, weight)
        P, rank, s = doc["P"], doc["alpha_rank"], doc["s"]
        hwv_rows[key] = {"rank": rank, "s": s, "ok": ok and (P, rank, s) == want}
        space = timed("relations", relation_space, weight, cache=cache)
        timed("relations", write_certificates, space, cache.store)
        rel_rows[key] = {"r": space.r, "expected": EXPECTED_R[lam], "from_cache": space.from_cache}
        for name in (name for name, at in BUNDLED_FILES if at == lam):
            doc, _, ok = timed("bundled", verify_check, cache, name, _bundled_text(name))
            file_rows[name] = {
                "zero": doc["zero"], "member": doc["membership"], "lambda": doc["lambda"]
            }
            bundle_ok = bundle_ok and ok and doc["lambda"] == list(lam)
    record("hwv", rows_ok(hwv_rows),
           "highest weight bases: rank = Q and s = m for all seven weights",
           rows=hwv_rows)
    record("relations", all(row["r"] == row["expected"] for row in rel_rows.values()),
           "relation multiplicities r for all seven weights", rows=rel_rows)

    # 5. leading monomial tables per degree
    rows = {}
    for degree in LAMBDAS_BY_DEGREE:
        doc, _, ok = timed("leading", leading_check, cache, degree)
        names = sorted(e["monomial"] for e in doc["entries"])
        rows[str(degree)] = {"count": doc["count"], "names": names, "ok": ok}
    record("leading", rows_ok(rows),
           "leading monomial staircases at degrees 12, 13, 14 (5, 8, 15 entries)",
           rows=rows)

    # 6. old/new split per degree
    rows = {}
    for degree in LAMBDAS_BY_DEGREE:
        doc, _, ok = timed("new", new_check, cache, degree)
        items = {_lam_key(i["lambda"]): [i["old"], i["new"]] for i in doc["items"]}
        rows[str(degree)] = {
            "items": items, "decomposition": doc["decomposition"], "ok": ok
        }
    record("new", rows_ok(rows),
           "split of relations into consequences and new generators per degree",
           rows=rows)

    # 7. the bundled files, checked in the passes of their weights
    record("bundled", bundle_ok,
           "bundled relation files evaluate to zero and lie in the "
           "computed relation spaces",
           rows={name: file_rows[name] for name, _ in BUNDLED_FILES})

    all_ok = all(t["ok"] for t in tables.values())
    import resource  # POSIX only

    # fresh work (evaluations, products, cache misses and writes), reuse and
    # the peak memory of the run
    store = cache.store
    stats = {
        "word_evals": cache.stats.word_evals,
        "mono_products": cache.stats.mono_products,
        "gen_products": cache.stats.gen_products,
        "bases_solved": cache.stats.bases_solved,
        "spaces_solved": cache.stats.spaces_solved,
        "spaces_loaded": cache.stats.spaces_loaded,
        "cache_hits": store.stats.hits,
        "cache_misses": store.stats.misses,
        "cache_corrupt": store.stats.corrupt,
        "cache_writes": store.stats.writes,
        # the peak resident set of the process so far; Linux reports kilobytes
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
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
    shared.add_argument(
        "--threads", type=int, default=S,
        help="accepted for existing scripts and ignored: every computation runs on the "
        "calling thread",
    )
    shared.add_argument("--degree-cap", type=int, default=S, help="largest total degree allowed (default 14)")
    shared.add_argument("--format", choices=["json", "text"], default=S, help="output format (default text)")

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
    sp.set_defaults(func=cmd_hwv)

    sp = sub.add_parser("relations", parents=[shared], help="relation space for a weight")
    sp.add_argument("--lambda", dest="lam", required=True, metavar="P,Q")
    sp.add_argument(
        "--mode", choices=["modular"], default="modular",
        help="accepted for existing scripts; modular, the default, is the one route: the "
        "kernel mod p, with each relation vector proven zero exactly",
    )
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("verify", parents=[shared], help="verify a candidate identity from a file")
    sp.add_argument("--file", required=True)
    sp.add_argument(
        "--trace", action="store_true",
        help="parse as a trace expression (default: generator notation)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("leading", parents=[shared], help="leading monomial staircase for a degree")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_leading)

    sp = sub.add_parser("new", parents=[shared], help="split relations of a degree into old and new")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_new)

    sp = sub.add_parser("reproduce", parents=[shared], help="check every frozen reference table")
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    cfg = build_config(args)
    try:
        payload, lines, ok = args.func(cfg, args)
    except PackedCapacityError as exc:
        raise SystemExit(f"{args.command}: beyond the packed evaluation capacity: {exc}")
    except NullStreamError as exc:
        raise SystemExit(f"{args.command}: {exc}")
    emit(payload, lines, cfg)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
