"""The benchmark's reach into the package, run as the benchmark runs it.

bench/tracer.py wraps package functions and methods that it looks up by
name, and bench/worker.py and bench/inputs.py pass keywords and flags to
the library and the command line.  A change that removes one of them
breaks the benchmark without failing any other test of the package.  These
tests run bench/'s own files, unchanged, each in a fresh process with
PYTHONPATH set to src alone (the worker checks that the package comes from
there) and no TRACEFORGE_* variables, and check the answers with the
benchmark's own frozen copy.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
DATA = SRC / "traceforge" / "data"


def worker(tmp_path: Path, task: str, *args: str, cli_args: tuple[str, ...] = (),
           cwd: Path = ROOT):
    """(exit status, stdout, out file) of one traced bench/worker.py run."""
    out = tmp_path / f"{task}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEFORGE_")}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, str(BENCH / "worker.py"), task, "--out", str(out), *args,
            "--trace", "--run-id", "t", "--t0", repr(time.time())]
    if cli_args:
        argv += ["--", *cli_args]
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    assert out.exists(), proc.stderr
    return proc.returncode, proc.stdout, json.loads(out.read_text())


def test_the_traced_bench_tasks_run_and_answer_right(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    expected = importlib.import_module("expected")
    inputs = importlib.import_module("inputs")
    tracer = importlib.import_module("tracer")
    metrics = {f[2] for f in tracer.FUNCTIONS} | {m[3] for m in tracer.METHODS}
    cache = tmp_path / "cache"

    # every degree-12 table from an empty cache dir, through the library
    plan = json.dumps(inputs.cold_d12_plan(1))
    status, _, out = worker(tmp_path, "cold_d12", "--cache", str(cache), "--plan", plan)
    assert (status, out["error"]) == (0, None)
    failed = [name for name, ok in expected.check_cold_d12(out["results"]) if not ok]
    assert failed == []
    layers = out["layers"]
    assert metrics <= set(layers)
    assert layers["hwv.basis_s"] > 0 and layers["relfinder.relation_space_s"] > 0
    assert layers["genmat.word_evals"] > 0 and layers["cache.writes"] > 0
    assert out["spans"]

    # the first command of each kind of a warm_cli pass, verify of a phi and
    # of a trace file apart, with its flags, on the same dir and from the
    # dir of the pass's files, as warm_cli runs it
    bundled = {name: (DATA / name).read_text() for name in expected.BUNDLED}
    plan = inputs.warm_cli_plan(1, str(DATA), bundled)
    files = tmp_path / "files"
    files.mkdir()
    for name, text in plan["files"].items():
        (files / name).write_text(text)
    first = {}
    for cmd in plan["commands"]:
        first.setdefault((cmd["kind"], "--trace" in cmd["args"]), cmd)
    assert len(first) == 6
    for (kind, _), cmd in first.items():
        argv = ("--cache-dir", str(cache), *inputs.CLI_FLAGS, *cmd["args"])
        status, stdout, out = worker(tmp_path, "cli", cli_args=argv, cwd=files)
        assert out["error"] is None, cmd["args"]
        assert expected.check_command(cmd, status, stdout)[1], (cmd["args"], stdout)
        assert metrics <= set(out["layers"]) and out["layers"][f"cli.{kind}_s"] > 0
