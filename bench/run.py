"""traceforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is cold_d12, relations_d14, warm_cli
or all.  Each workload is a closed loop with one client: it sets up its
fixture SETUP_REPS times (setup_s is the median), then repeats its unit of
work, each time in fresh processes and a fresh copy of its cache dir, until
S seconds have passed (at least once, relations_d14 at least twice).  Every
answer is checked against the benchmark's own frozen copy (expected.py).  The last line of stdout is one
JSON object: with --trace 0 it holds the end-to-end metrics, with --trace 1
the per-layer metrics of traced units, which alternate with untraced ones
so that the run also reports the tracing overhead.

Workloads (why each was chosen is in BENCHMARK.json):
  cold_d12       one unit = every degree-12 paper table in a fresh
                 interpreter with an empty cache dir
  relations_d14  one unit = the degree-14 relation spaces, staircase and
                 old/new split, in a fresh interpreter, on a copy of a cache
                 dir holding the word traces and the degree-12/13 spaces
  warm_cli       one unit = a seeded pass of traceforge CLI commands, each
                 its own process, against a warmed cache dir

Isolation: children get PYTHONPATH=<checkout>/src, no TRACEFORGE_*
variables, one BLAS thread and a fixed hash seed; every run works in its own
directory under .bench_work/ and removes it at the end.  Spans of traced
runs are kept in .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import expected
import inputs
from stats import median, tail

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
# set-ups per run; setup_s is their median.  Set-up is most of a warm_cli or
# relations_d14 run, and the run-time budget pays for two, not three; the
# cold_d12 set-up is a short, noisy interpreter start, so it takes five.
SETUP_REPS = {"cold_d12": 5, "relations_d14": 2, "warm_cli": 2}
# every run must end within 180 s: past this point no further unit starts
# (a traced run still finishes its first traced unit)
DEADLINE_S = 120.0
CHILD_TIMEOUT_S = 170.0
# relations_d14 units vary most from run to run (large memory-bound
# products): one unit per run gave a spread of 0.21 over ten seeds, the
# median of two 0.08 to 0.17
MIN_UNITS = {"relations_d14": 2}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
)

PER_LAYER = (
    ("glcat.catalog_s", "s"),
    ("genmat.word_evals", "count"),
    ("genmat.default_word_evals", "count"),
    ("genmat.disk_hits", "count"),
    ("genmat.mono_products", "count"),
    ("hwv.basis_s", "s"),
    ("hwv.verify_s", "s"),
    ("relfinder.relation_space_s", "s"),
    ("relfinder.assemble_s", "s"),
    ("relfinder.monomial_eval_s", "s"),
    ("relfinder.leading_s", "s"),
    ("relfinder.new_s", "s"),
    ("relfinder.verify_zero_s", "s"),
    ("relfinder.membership_s", "s"),
    ("packedpoly.mul_s", "s"),
    ("packedpoly.mul_calls", "count"),
    ("packedpoly.mul_terms_out", "count"),
    ("packedpoly.object_results", "count"),
    ("nullspace.null_stream_s", "s"),
    ("nullspace.null_stream_calls", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("cache.writes", "count"),
    ("cache.dir_bytes", "bytes"),
    ("phiparse.parse_s", "s"),
    ("tracelang.parse_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.mult_s", "s"),
    ("cli.relations_s", "s"),
    ("cli.leading_s", "s"),
    ("cli.new_s", "s"),
    ("cli.verify_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# per-layer metrics reported as the median per invocation, not as a sum
# over the processes of a unit
PER_INVOCATION = ("cli.startup_s", "cli.mult_s", "cli.relations_s",
                  "cli.leading_s", "cli.new_s", "cli.verify_s")


@dataclass
class Proc:
    status: int
    wall: float
    rss_mb: float
    stdout: str
    out: dict = field(default_factory=dict)


@dataclass
class Unit:
    traced: bool
    wall: float
    rss_mb: float
    cmd_walls: list[float]
    checks: list[tuple[str, bool]]
    layers: dict[str, float]


def child_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEFORGE_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        base = ROOT / ".bench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
        (self.work / "tmp").mkdir()
        self.env = child_env(self.work / "tmp")
        self.spans: list[dict] = []
        self.fixture = None  # what set-up made: a plan or a cache dir
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=name + "-", dir=self.work))

    # -- processes -----------------------------------------------------------

    def child(self, argv: list[str], cwd: Path | None = None) -> Proc:
        """Run one process to its end; its peak RSS comes from wait4."""
        self._n += 1
        out_path = self.work / f"stdout-{self._n}"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=cwd or ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        out_path.unlink()
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, stdout)

    def worker(self, task: str, cache: Path | None, run_id: str, traced: bool,
               plan: dict | None = None, cli_args: list[str] | None = None,
               cwd: Path | None = None) -> Proc:
        self._n += 1
        out_file = self.work / f"worker-{self._n}.json"
        argv = [sys.executable, str(BENCH / "worker.py"), task, "--out", str(out_file),
                "--plan", json.dumps(plan or {})]
        if cache is not None:
            argv += ["--cache", str(cache)]
        if traced:
            argv += ["--trace", "--run-id", run_id, "--t0", repr(time.time())]
        if cli_args:
            argv += ["--", *cli_args]
        start = time.time()
        p = self.child(argv, cwd)
        if out_file.exists():
            p.out = json.loads(out_file.read_text())
            out_file.unlink()
        self.spans.append({"id": run_id, "name": f"process.{task}", "run": run_id,
                           "parent": None, "start": start, "end": time.time()})
        for s in p.out.get("spans", ()):
            s["parent"] = s["parent"] or run_id
            self.spans.append(s)
        return p

    # -- workloads -----------------------------------------------------------

    def setup(self) -> object:
        return getattr(self, f"setup_{self.workload}")()

    def unit(self, index: int, traced: bool) -> Unit:
        return getattr(self, f"unit_{self.workload}")(index, traced)

    def _worker_unit(self, task: str, cache: Path, index: int, traced: bool,
                     plan: dict, check) -> Unit:
        p = self.worker(task, cache, f"{task}-{self.seed}-u{index}", traced, plan)
        checks = check(p.out.get("results", {}))
        checks.append((f"{task}.exit", p.status == 0 and p.out.get("error") is None))
        layers = dict(p.out.get("layers", {}))
        layers["cache.dir_bytes"] = dir_bytes(cache)
        shutil.rmtree(cache, ignore_errors=True)
        return Unit(traced, p.wall, p.rss_mb, [p.wall], checks, layers)

    def setup_cold_d12(self):
        # the only set-up a cold run needs is an interpreter that imports the
        # package (the first one also writes the bytecode cache)
        p = self.child([sys.executable, "-c", "import traceforge.cli"])
        if p.status != 0:
            raise RuntimeError("traceforge does not import")
        return inputs.cold_d12_plan(self.seed)

    def unit_cold_d12(self, index: int, traced: bool) -> Unit:
        return self._worker_unit("cold_d12", self.fresh_dir("cold"), index, traced,
                                 self.fixture, expected.check_cold_d12)

    def setup_relations_d14(self):
        cache = self.fresh_dir("fixture")
        p = self.worker("fixture", cache, f"fixture-{self.seed}", False)
        if p.status != 0 or p.out.get("error"):
            raise RuntimeError(f"fixture failed: {p.out.get('error')}")
        return cache

    def unit_relations_d14(self, index: int, traced: bool) -> Unit:
        cache = self.fresh_dir("d14")
        shutil.copytree(self.fixture, cache, dirs_exist_ok=True)
        return self._worker_unit("relations_d14", cache, index, traced, {},
                                 expected.check_relations_d14)

    def warm_plan(self) -> tuple[dict, Path]:
        data = ROOT / "src" / "traceforge" / "data"
        texts = {n: (data / n).read_text() for n in expected.BUNDLED}
        plan = inputs.warm_cli_plan(self.seed, str(data), texts)
        files = self.work / "files"
        if not files.exists():
            files.mkdir()
            for name, text in plan["files"].items():
                (files / name).write_text(text)
        return plan, files

    def setup_warm_cli(self):
        plan, files = self.warm_plan()
        cache = self.fresh_dir("warm")
        p = self.worker("warm", cache, f"warm-{self.seed}", False, plan, cwd=files)
        if p.status != 0 or p.out.get("error"):
            raise RuntimeError(f"warming failed: {p.out.get('error')}")
        return cache

    def unit_warm_cli(self, index: int, traced: bool) -> Unit:
        plan, files = self.warm_plan()
        cache = self.fixture
        walls, checks, rss = [], [], 0.0
        sums: dict[str, float] = {}
        per_call: dict[str, list[float]] = {m: [] for m in PER_INVOCATION}
        for i, cmd in enumerate(plan["commands"]):
            argv = ["--cache-dir", str(cache), *inputs.CLI_FLAGS, *cmd["args"]]
            if traced:
                p = self.worker("cli", None, f"cli-{self.seed}-u{index}-c{i}", True,
                                cli_args=argv, cwd=files)
            else:
                p = self.child([sys.executable, "-m", "traceforge.cli", *argv], files)
            walls.append(p.wall)
            rss = max(rss, p.rss_mb)
            checks.append(expected.check_command(cmd, p.status, p.stdout))
            for k, v in p.out.get("layers", {}).items():
                if k in per_call:
                    if k == "cli.startup_s" or k == f"cli.{cmd['kind']}_s":
                        per_call[k].append(v)
                else:
                    sums[k] = sums.get(k, 0) + v
        for k, vs in per_call.items():
            sums[k] = median(vs) if vs else 0.0
        sums["cache.dir_bytes"] = dir_bytes(cache)
        return Unit(traced, sum(walls), rss, walls, checks, sums)

    # -- the loop ------------------------------------------------------------

    def execute(self) -> dict:
        t_run = time.perf_counter()
        setup_times = []
        for _ in range(SETUP_REPS[self.workload]):
            t0 = time.perf_counter()
            fixture = self.setup()
            setup_times.append(time.perf_counter() - t0)
            if self.fixture is None:
                self.fixture = fixture
            elif isinstance(fixture, Path):
                shutil.rmtree(fixture, ignore_errors=True)
        units: list[Unit] = []
        t_loop = time.perf_counter()
        while True:
            # with tracing, untraced and traced units alternate
            traced = self.trace and len(units) % 2 == 1
            units.append(self.unit(len(units), traced))
            now = time.perf_counter()
            done = (now - t_loop >= self.seconds
                    and len(units) >= MIN_UNITS.get(self.workload, 1))
            if (done or now - t_run > DEADLINE_S) and not (
                    self.trace and not any(u.traced for u in units)):
                break
        return self.summarize(setup_times, units)

    def summarize(self, setup_times: list[float], units: list[Unit]) -> dict:
        checks = [c for u in units for c in u.checks]
        failed = [name for name, ok in checks if not ok]
        plain = [u for u in units if not u.traced]
        traced = [u for u in units if u.traced]
        cmds = [w for u in plain for w in u.cmd_walls]
        tail_v, tail_pct, tail_n = tail(cmds)
        e2e = {
            "wall_s": median([u.wall for u in plain]),
            "setup_s": median(setup_times),
            "peak_rss_mb": median([u.rss_mb for u in plain]),
            "cmd_p50_s": median(cmds),
            "cmd_tail_s": tail_v,
        }
        layers = {}
        if traced:
            for name, _ in PER_LAYER:
                vals = [u.layers.get(name, 0.0) for u in traced]
                layers[name] = median(vals)
            layers["trace.overhead_ratio"] = (
                median([u.wall for u in traced]) / median([u.wall for u in plain]))
        return {
            "attempted": len(checks),
            "failed": failed,
            "e2e": e2e,
            "tail": (tail_pct, tail_n),
            "layers": layers,
            "units": len(units),
        }

    def write_spans(self) -> Path | None:
        if not self.trace:
            return None
        d = ROOT / ".bench_work" / "traces"
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"{self.workload}-seed{self.seed}-{os.getpid()}.jsonl"
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        return path


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "commit": commit, "seed": seed}


def run_workload(name: str, args) -> dict:
    run = Run(name, args.seed, args.seconds, bool(args.trace))
    try:
        res = run.execute()
        res["trace_file"] = run.write_spans()
    finally:
        run.close()
    return res


def report(name: str, res: dict, trace: bool) -> dict:
    """Print one workload's metrics by name and unit; return the JSON ones."""
    n, failed = res["attempted"], len(res["failed"])
    print(f"== {name}: {res['units']} units, {n} checks, {failed} failed")
    for check in res["failed"]:
        print(f"   FAILED {check}")
    pct, count = res["tail"]
    for metric, unit in END_TO_END:
        note = f"   (p{pct:.1f} of n={count})" if metric == "cmd_tail_s" else ""
        print(f"   {metric:<14} {res['e2e'][metric]:12.4f} {unit}{note}")
    print(f"   {'fail_ratio':<14} {failed / n:12.4f} ratio   ({failed} of {n})")
    if trace:
        for metric, unit in PER_LAYER:
            print(f"   {metric:<28} {res['layers'][metric]:14.4f} {unit}")
        print(f"   spans written to {res['trace_file']}")
    table = PER_LAYER if trace else END_TO_END
    src = res["layers"] if trace else res["e2e"]
    return {m: {"value": src[m], "unit": u} for m, u in table}


WORKLOADS = ("cold_d12", "relations_d14", "warm_cli")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "traceforge" / "__init__.py").is_file():
        print("bench/run.py: no traceforge sources under ./src; run it from the "
              "root of a traceforge checkout", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print("machine: " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args)
        attempted += res["attempted"]
        failed += len(res["failed"])
        got = report(name, res, bool(args.trace))
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}.{m}": v for m, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
