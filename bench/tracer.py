"""Layer tracing from outside the program.

Tracer.install wraps the public functions of each traceforge module (and a
few methods) in place, in every module namespace that imported them, so
that calls between modules go through the wrappers too.  Nothing in the
package is edited.  Each wrapper adds its wall time to one layer metric;
recursive or nested calls of the same metric count once, at the outermost
call.  Coarse calls also record a span (name, start, end, parent, run id);
hot calls (products, cache reads, monomial evaluation) only count, so the
span list stays small.  Spans are kept in memory and written at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MIN_SPAN_S = 1e-3

# (module, function, layer metric, record a span)
FUNCTIONS = (
    ("glcat", "catalog", "glcat.catalog_s", True),
    ("hwv", "hwv_basis", "hwv.basis_s", True),
    ("hwv", "hwv_verify", "hwv.verify_s", True),
    ("relfinder", "relation_space", "relfinder.relation_space_s", True),
    ("relfinder", "_assemble_matrix", "relfinder.assemble_s", True),
    ("relfinder", "eval_abs_monomial", "relfinder.monomial_eval_s", False),
    ("relfinder", "leading_analysis", "relfinder.leading_s", True),
    ("relfinder", "new_relations", "relfinder.new_s", True),
    ("relfinder", "verify_zero", "relfinder.verify_zero_s", True),
    ("relfinder", "verify_zero_abs", "relfinder.verify_zero_s", True),
    ("relfinder", "membership", "relfinder.membership_s", True),
    ("nullspace", "null_stream", "nullspace.null_stream_s", True),
    ("phiparse", "parse_phi", "phiparse.parse_s", True),
    ("tracelang", "parse_trace", "tracelang.parse_s", True),
    ("cli", "cmd_mult", "cli.mult_s", True),
    ("cli", "cmd_relations", "cli.relations_s", True),
    ("cli", "cmd_leading", "cli.leading_s", True),
    ("cli", "cmd_new", "cli.new_s", True),
    ("cli", "cmd_verify", "cli.verify_s", True),
)

# (module, class, method, layer metric)
METHODS = (
    ("cache", "CacheStore", "get_poly", "cache.get_s"),
    ("cache", "CacheStore", "get_json", "cache.get_s"),
    ("cache", "CacheStore", "put_poly", "cache.put_s"),
    ("cache", "CacheStore", "put_json", "cache.put_s"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._open: list[str] = []
        self._caches: list = []
        self._stores: list = []
        self._genmat = None

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name.  Spans shorter than MIN_SPAN_S
        (memo hits, mostly) are dropped; their time still counts."""
        sid = f"{self.run_id}:{len(self.spans)}"
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(sid)
        rec["start"] = time.time()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.time()
            self._open.pop()
            # a span this short has no kept children, so it is the last one
            if rec["end"] - rec["start"] < MIN_SPAN_S:
                self.spans.pop()

    def _timed(self, metric: str, span: bool, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[metric]:
                return fn(*args, **kwargs)
            self._depth[metric] += 1
            self.calls[metric] += 1
            t0 = time.perf_counter()
            try:
                if span:
                    name = f"{metric.split('.')[0]}.{fn.__name__}"
                    return self.span(name, fn, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self.seconds[metric] += time.perf_counter() - t0
                self._depth[metric] -= 1
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import traceforge.cli  # noqa: F401  (loads every module of the package)
        from traceforge import cache, genmat, packedpoly

        mods = [m for n, m in sys.modules.items()
                if n == "traceforge" or n.startswith("traceforge.")]

        def replace(orig, new) -> None:
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, new)

        for mod, name, metric, span in FUNCTIONS:
            orig = getattr(sys.modules[f"traceforge.{mod}"], name)
            replace(orig, self._timed(metric, span, orig))
        for mod, cls, name, metric in METHODS:
            klass = getattr(sys.modules[f"traceforge.{mod}"], cls)
            setattr(klass, name, self._timed(metric, False, getattr(klass, name)))

        mul = packedpoly.PackedPoly.mul
        counts = self.counts

        def counted_mul(a, b):
            out = mul(a, b)
            counts["packedpoly.mul_terms_out"] += out.nnz
            counts["packedpoly.object_results"] += out.is_big()
            return out

        packedpoly.PackedPoly.mul = self._timed("packedpoly.mul_s", False, counted_mul)

        # every cache the program creates reports its counters at the end
        ec_init = genmat.EvalCache.__init__
        cs_post = cache.CacheStore.__post_init__
        caches, stores = self._caches, self._stores

        def ec_register(obj, *a, **k):
            ec_init(obj, *a, **k)
            caches.append(obj)

        def cs_register(obj):
            cs_post(obj)
            stores.append(obj)

        genmat.EvalCache.__init__ = ec_register
        cache.CacheStore.__post_init__ = cs_register
        self._genmat = genmat

    # -- results -------------------------------------------------------------

    def layers(self) -> dict[str, float]:
        out: dict[str, float] = {}
        metrics = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]
        for metric in metrics + ["packedpoly.mul_s"]:
            out[metric] = self.seconds.get(metric, 0.0)
        out["packedpoly.mul_calls"] = self.calls.get("packedpoly.mul_s", 0)
        out["packedpoly.mul_terms_out"] = self.counts.get("packedpoly.mul_terms_out", 0)
        out["packedpoly.object_results"] = self.counts.get("packedpoly.object_results", 0)
        out["nullspace.null_stream_calls"] = self.calls.get("nullspace.null_stream_s", 0)
        for field in ("word_evals", "mono_products", "disk_hits"):
            out[f"genmat.{field}"] = sum(getattr(c.stats, field) for c in self._caches)
        out["genmat.default_word_evals"] = self._genmat.default_cache().stats.word_evals
        for field in ("hits", "misses", "corrupt", "writes"):
            out[f"cache.{field}"] = sum(getattr(s.stats, field) for s in self._stores)
        return out
