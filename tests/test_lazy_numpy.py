"""numpy is imported on first use: warm commands that build no array never
load it, and threads that race to the first use all get a complete numpy.
Nor does the package load dataclasses or inspect: a dataclass compiles
generated methods at every import, which costs every process start-up time.
Nor, cold or warm, does it load _hashlib, which maps OpenSSL's libcrypto
into the process only to hash: the store hashes with CPython's own SHA-256.

Every check runs in a fresh interpreter, because this one has numpy loaded.
numpy counts as loaded once any of its submodules is in sys.modules: a lazy
handle may register the name "numpy" alone before anything is imported.
dataclasses, inspect and _hashlib count only when the interpreter had not
loaded them before the package, as a site hook may.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import traceforge
from traceforge import glcat
from traceforge.cache import CacheStore
from traceforge.cli import main
from traceforge.packedpoly import PackedPoly

SRC = str(Path(traceforge.__file__).resolve().parent.parent)
V75 = str(Path(traceforge.__file__).resolve().parent / "data" / "v75.phi")

# dataclasses and the inspect module it imports: neither the package import
# nor a warm command loads them
CODEGEN = ("dataclasses", "inspect")
# OpenSSL's hashlib backend: no command loads it, cold or warm
OPENSSL = ("_hashlib",)
UNLOADED = CODEGEN + OPENSSL

# runs `python3 -m traceforge.cli ARGS`, then reports on stderr its exit code,
# the numpy submodules the process loaded, whether it loaded
# concurrent.futures (the package starts no thread pool, so a warm command
# must not) and which of UNLOADED it loaded
CLI_PROBE = f"""
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["traceforge", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("traceforge.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
numpy = sorted(m for m in sys.modules if m.startswith("numpy."))
futures = "concurrent.futures" in sys.modules
loaded = [m for m in {UNLOADED!r} if m in sys.modules and m not in before]
print(json.dumps({{"exit": code, "numpy": numpy, "futures": futures, "loaded": loaded}}),
      file=sys.stderr)
"""

# four threads whose first numpy use is a PackedPoly product, with a short
# switch interval so that they interleave inside the first import
THREAD_PROBE = """
import json, sys, threading
from traceforge.packedpoly import PackedPoly
assert not any(m.startswith("numpy.") for m in sys.modules)
terms = json.loads(sys.argv[1])
barrier = threading.Barrier(4, timeout=60)
results, errors = [None] * 4, []

def work(i):
    barrier.wait()
    try:
        a = PackedPoly.from_terms(terms[0])
        b = PackedPoly.from_terms(terms[1])
        results[i] = a.mul(b).to_bytes().hex()
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
alive = sum(t.is_alive() for t in threads)
print(json.dumps({"results": results, "errors": errors, "alive": alive}))
"""

WARM_COMMANDS = (
    ("mult", "--lambda", "7,5"),
    ("hwv", "--lambda", "7,5"),
    # a basis is solved on every hwv run, on the calling thread whatever
    # --threads says
    ("hwv", "--threads", "4", "--lambda", "8,6"),
    ("relations", "--lambda", "7,5"),
    ("verify", "--file", V75),
    ("leading", "--degree", "12"),
    ("new", "--degree", "12"),
)


def python(*argv: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
    )


def cli(
    cache_dir: Path, *args: str, unloaded: tuple[str, ...] = UNLOADED
) -> tuple[int, dict, list[str], bool]:
    """Exit code, JSON payload, loaded numpy submodules and whether
    concurrent.futures was loaded, of one CLI process, which must load
    none of unloaded."""
    proc = python(
        "-c", CLI_PROBE, "--cache-dir", str(cache_dir), "--format", "json", *args
    )
    probe = json.loads(proc.stderr.strip().splitlines()[-1])
    assert [m for m in probe["loaded"] if m in unloaded] == [], args
    return probe["exit"], json.loads(proc.stdout), probe["numpy"], probe["futures"]


def test_import_loads_no_numpy():
    proc = python(
        "-c",
        "import json, sys; before = set(sys.modules); "
        "import traceforge, traceforge.cli; "
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('numpy.')), "
        f"[m for m in {UNLOADED!r} if m in sys.modules and m not in before]]))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_warm_commands_load_no_numpy(tmp_path):
    for args in WARM_COMMANDS:
        assert main(["--cache-dir", str(tmp_path), *args]) == 0
    for args in WARM_COMMANDS:
        # cli also checks that the command loads no module of UNLOADED
        code, doc, numpy, futures = cli(tmp_path, *args)
        assert code == 0, args
        assert numpy == [], args
        # no command starts a thread pool
        assert not futures, args
        if args[0] == "relations":
            assert doc["from_cache"] is True
        if args[0] == "verify":
            assert doc["zero"] is True and doc["membership"] is True


def test_a_cold_relation_space_loads_no_openssl(tmp_path):
    # a cold command writes and reads entries, each checksummed, and loads
    # numpy, which loads inspect, but no OpenSSL (cli checks)
    code, doc, numpy, _ = cli(tmp_path, "relations", "--lambda", "7,5", unloaded=OPENSSL)
    assert code == 0 and doc["from_cache"] is False and doc["r"] == 1
    assert numpy != []


def test_first_numpy_use_from_several_threads():
    x = [1, 0, 0] + [0] * 15
    y = [0, 0, 0, 1] + [0] * 14
    terms = [
        [(x, 3), (y, -2), ([a + b for a, b in zip(x, y)], 5)],
        [(x, -1), ([0, 1, 0] + [0] * 15, 7), (y, 4)],
    ]
    want = PackedPoly.from_terms(terms[0]).mul(PackedPoly.from_terms(terms[1]))
    proc = python("-c", THREAD_PROBE, json.dumps(terms))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["alive"] == 0 and doc["errors"] == []
    assert doc["results"] == [want.to_bytes().hex()] * 4


def test_every_cache_dir_gets_the_catalog_verdict(tmp_path):
    # one process on two cache dirs certifies the catalog at most once, and
    # both stores get the verdict, so a fresh process on either loads no numpy
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["--cache-dir", str(d), "relations", "--lambda", "7,5"]) == 0
    digest = glcat._catalog_digest(glcat._build_modules())
    for d in dirs:
        verdict = CacheStore(d).get_json(f"catalog-cert:{digest}")
        assert verdict == {"ok": True, "digest": digest}, d
    code, doc, numpy, _ = cli(dirs[1], "relations", "--lambda", "7,5")
    assert code == 0 and doc["from_cache"] is True
    assert numpy == []
