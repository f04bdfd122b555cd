"""One benchmark process: a fresh interpreter that runs one task.

    python3 bench/worker.py TASK --cache DIR --out FILE [--plan JSON]
                            [--trace --run-id ID --t0 EPOCH] [-- CLI ARGS]

Tasks:
  cold_d12       every degree-12 paper table from an empty cache dir
  relations_d14  the degree-14 relation spaces, staircase and old/new split
  fixture        fill a cache dir for relations_d14: word traces, catalog
                 verdict, degree-12/13 relation spaces
  warm           run each distinct command of a warm_cli pass once, in this
                 process, to warm a cache dir
  cli            one traced CLI invocation (the untraced one runs
                 `python3 -m traceforge.cli` directly)

The answers go to FILE as JSON; the benchmark checks them against its own
frozen copy.  With --trace, FILE also gets layer metrics and spans.  Every
library call passes threads=1 and mode="modular" explicitly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

THREADS = 1
MODE = "modular"


def _data_text(name: str) -> str:
    from importlib import resources
    return resources.files("traceforge").joinpath("data", name).read_text()


def task_cold_d12(cache_dir: str, plan: dict, res: dict) -> None:
    from traceforge import genmat
    from traceforge.cache import CacheStore
    from traceforge.glcat import (Partition, catalog, generator_degree_audit,
                                  hilbert_coeff, multiplicity)
    from traceforge.hwv import hwv_basis, hwv_verify
    from traceforge.phiparse import parse_phi
    from traceforge.relfinder import (leading_analysis, membership, new_relations,
                                      relation_space, verify_zero_abs,
                                      write_certificates)

    from expected import BUNDLED, HILBERT, WEIGHTS_BY_DEGREE, key

    cache = genmat.EvalCache(CacheStore(cache_dir))
    catalog(cache)
    res["audit"] = generator_degree_audit()
    res["hilbert"] = {}
    for lam in HILBERT:
        lam = Partition(*lam)
        res["hilbert"][key(lam)] = [
            hilbert_coeff(lam),
            hilbert_coeff(Partition(lam.l1 + 1, lam.l2 - 1)),
            multiplicity(lam),
        ]
    res["hwv"], res["relations"] = {}, {}
    spaces = {}
    for lam in WEIGHTS_BY_DEGREE[12]:
        basis = hwv_basis(Partition(*lam), threads=THREADS)
        rep = hwv_verify(basis, evaluate=True, cache=cache)
        res["hwv"][key(lam)] = {"P": basis.P, "rank": basis.alpha_rank,
                                 "s": basis.s, "verified": rep.ok}
        space = relation_space(Partition(*lam), mode=MODE, cache=cache,
                               threads=THREADS)
        spaces[lam] = space
        certs = write_certificates(space, cache.store)
        res["relations"][key(lam)] = {"r": space.r, "certificates": len(certs)}
    rep = leading_analysis([spaces[lam] for lam in WEIGHTS_BY_DEGREE[12]])
    res["leading"] = list(rep.names)
    split = new_relations(12, mode=MODE, cache=cache, threads=THREADS)
    res["new"] = {key(i.lam): [i.old, i.new] for i in split.items}
    res["files"] = {}
    for name in plan["files"]:
        cand = parse_phi(_data_text(name))
        zrep = verify_zero_abs(cand, cache)
        res["files"][name] = {"zero": zrep.zero,
                              "member": membership(cand, spaces[BUNDLED[name]])}


def task_relations_d14(cache_dir: str, plan: dict, res: dict) -> None:
    from traceforge import genmat
    from traceforge.cache import CacheStore
    from traceforge.glcat import Partition
    from traceforge.relfinder import leading_analysis, new_relations, relation_space

    from expected import WEIGHTS_BY_DEGREE, key

    cache = genmat.EvalCache(CacheStore(cache_dir))
    spaces = {}
    for lam in WEIGHTS_BY_DEGREE[14]:
        spaces[lam] = relation_space(Partition(*lam), mode=MODE, cache=cache,
                                     threads=THREADS)
    res["relations"] = {key(lam): s.r for lam, s in spaces.items()}
    rep = leading_analysis([spaces[lam] for lam in WEIGHTS_BY_DEGREE[14]])
    res["leading"] = list(rep.names)
    split = new_relations(14, mode=MODE, cache=cache, threads=THREADS)
    res["new"] = {key(i.lam): [i.old, i.new] for i in split.items}
    res["word_evals"] = cache.stats.word_evals


def task_fixture(cache_dir: str, plan: dict, res: dict) -> None:
    from traceforge import genmat
    from traceforge.cache import CacheStore
    from traceforge.glcat import Partition, catalog
    from traceforge.relfinder import relation_space

    from expected import WEIGHTS_BY_DEGREE

    cache = genmat.EvalCache(CacheStore(cache_dir))
    catalog(cache)
    for degree in (12, 13):
        for lam in WEIGHTS_BY_DEGREE[degree]:
            relation_space(Partition(*lam), mode=MODE, cache=cache, threads=THREADS)


def task_warm(cache_dir: str, plan: dict, res: dict) -> None:
    from traceforge import cli

    from inputs import CLI_FLAGS

    distinct = dict.fromkeys(tuple(cmd["args"]) for cmd in plan["commands"])
    for args in distinct:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--cache-dir", cache_dir, *CLI_FLAGS, *args])


TASKS = {
    "cold_d12": task_cold_d12,
    "relations_d14": task_relations_d14,
    "fixture": task_fixture,
    "warm": task_warm,
}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("task", choices=[*TASKS, "cli"])
    ap.add_argument("--cache")
    ap.add_argument("--out", required=True)
    ap.add_argument("--plan", default="{}")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--t0", type=float)
    cli_args = []
    if "--" in argv:
        at = argv.index("--")
        argv, cli_args = argv[:at], argv[at + 1:]
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.run_id)
        tracer.install()
    import traceforge

    src = Path(traceforge.__file__).resolve().parent.parent
    if src != Path(os.environ["PYTHONPATH"]).resolve():
        raise SystemExit(f"traceforge imported from {src}, not from PYTHONPATH")

    out: dict = {"results": {}, "error": None}
    status = 0
    t_main = time.time()
    try:
        if args.task == "cli":
            from traceforge import cli
            call = lambda: cli.main(cli_args)  # noqa: E731
        else:
            plan = json.loads(args.plan)
            call = lambda: TASKS[args.task](args.cache, plan, out["results"])  # noqa: E731
        status = (tracer.span(f"worker.{args.task}", call) if tracer else call()) or 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported as a failed check by the benchmark
        out["error"] = f"{type(exc).__name__}: {exc}"
        status = 1
    if tracer:
        out["layers"] = tracer.layers()
        out["spans"] = tracer.spans
        if args.task == "cli":
            out["layers"]["cli.startup_s"] = t_main - args.t0
    Path(args.out).write_text(json.dumps(out))
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
