"""Command line interface: payload shapes, exit codes, env handling."""

import importlib.resources as ir
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import traceforge
from traceforge.cache import CacheStore
from traceforge.cli import main

SRC = str(Path(traceforge.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_mult_payload_exact(capsys):
    code, doc = run_json(capsys, "mult", "--lambda", "7,5")
    assert code == 0
    assert doc == {"m": 36, "P": 155, "Q": 119}


def test_mult_text_format(capsys):
    code, out = run(capsys, "mult", "--lambda", "6,6", "--format", "text")
    assert code == 0
    assert "P=185" in out and "Q=155" in out and "m=30" in out


def test_mult_rejects_bad_lambda(capsys):
    with pytest.raises(SystemExit):
        main(["mult", "--lambda", "5,7"])
    with pytest.raises(SystemExit):
        main(["mult", "--lambda", "banana"])


def test_degree_cap_enforced(capsys):
    with pytest.raises(SystemExit):
        main(["mult", "--lambda", "9,9"])
    # raising the cap admits the weight
    code, doc = run_json(capsys, "mult", "--lambda", "9,9", "--degree-cap", "18")
    assert code == 0
    assert doc["P"] - doc["Q"] == doc["m"]


def test_settings_come_from_flags_alone(capsys, monkeypatch, tmp_path):
    # only the cache dir has an environment variable; the other settings
    # keep their defaults whatever the environment says, and the flags that
    # named a default are gone
    monkeypatch.setenv("TRACEFORGE_FORMAT", "json")
    monkeypatch.setenv("TRACEFORGE_DEGREE_CAP", "16")
    monkeypatch.setenv("TRACEFORGE_THREADS", "abc")
    code, out = run(capsys, "mult", "--lambda", "7,5")
    assert code == 0 and out == "lambda=(7,5)  P=155  Q=119  m=36\n"
    with pytest.raises(SystemExit) as exc:
        main(["mult", "--lambda", "8,7"])
    assert "exceeds the degree cap 14" in exc.value.code
    for argv in (["verify", "--file", "v75.phi", "--phi"], ["reproduce", "--paper-tables"]):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(tmp_path / "c"), *argv])
        assert exc.value.code == 2, argv  # argparse's usage error
    assert "unrecognized arguments" in capsys.readouterr().err


def test_invalid_format_rejected():
    with pytest.raises(SystemExit):
        main(["mult", "--lambda", "7,5", "--format", "yaml"])


def test_catalog_smoke(capsys, tmp_path):
    code, doc = run_json(capsys, "catalog", "--cache-dir", str(tmp_path / "c"))
    assert code == 0
    assert len(doc["modules"]) == 12


def test_hwv_small(capsys, tmp_path):
    code, doc = run_json(
        capsys, "hwv", "--lambda", "6,6", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["s"] == 30
    assert doc["verified"] is True
    assert doc["failures"] == []


def test_verify_bundled_file(capsys, tmp_path):
    data = ir.files("traceforge") / "data"
    target = tmp_path / "v66prime.phi"
    target.write_text((data / "v66prime.phi").read_text())
    code, doc = run_json(
        capsys, "verify", "--file", str(target), "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["zero"] is True
    assert doc["membership"] is True
    assert doc["lambda"] == [6, 6]


def test_verify_nonzero_file_fails(capsys, tmp_path):
    bad = tmp_path / "bad.phi"
    bad.write_text("t4^2*x1^2")
    code, doc = run_json(
        capsys, "verify", "--file", str(bad), "--cache-dir", str(tmp_path / "c")
    )
    assert code == 1
    assert doc["zero"] is False
    assert doc["residual_terms"] > 0
    assert doc["residual_sample"]
    assert doc["membership"] is None  # (4,2) carries no relations


def test_verify_inhomogeneous_input(capsys, tmp_path):
    f = tmp_path / "mixed.phi"
    f.write_text("t4^2*(x1-y1)^2")
    code, doc = run_json(
        capsys, "verify", "--file", str(f), "--cache-dir", str(tmp_path / "c")
    )
    assert code == 1
    assert doc["lambda"] is None
    assert doc["zero"] is False


def test_verify_trace_grammar(capsys, tmp_path):
    f = tmp_path / "zero.trace"
    f.write_text("tr(xxy) - tr(yxx)")
    code, doc = run_json(
        capsys, "verify", "--file", str(f), "--trace", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["zero"] is True
    assert doc["membership"] is None


def grammar_flags(grammar: str) -> list[str]:
    # phi is the default grammar and has no flag
    return ["--trace"] if grammar == "--trace" else []


@pytest.mark.parametrize(
    "grammar, text, message",
    [
        ("--phi", "t4^2*(x1", "bad phi file"),
        ("--phi", "u13_0", "bad phi file"),
        ("--trace", "tr(xy", "bad trace file"),
        ("--trace", "tr(x) - tr(y)", "bad trace file"),
        # "²" is a digit to str.isdigit(), but int() does not read it
        ("--phi", "²*t4^2", "bad phi file"),
        ("--trace", "²*tr(xx)", "bad trace file"),
    ],
)
def test_verify_malformed_file_is_a_one_line_error(tmp_path, grammar, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--file", str(f), *grammar_flags(grammar),
              "--cache-dir", str(tmp_path / "c")])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith(f"{message} {f}: ")
    assert "\n" not in msg


@pytest.mark.parametrize("grammar", ["--phi", "--trace"])
def test_verify_unreadable_file_is_a_one_line_error(tmp_path, grammar):
    binary = tmp_path / "binary.phi"
    binary.write_bytes(b"\xff\xfe\x00")
    for f in (tmp_path / "missing.phi", tmp_path, binary):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--file", str(f), *grammar_flags(grammar),
                  "--cache-dir", str(tmp_path / "c")])
        msg = exc.value.code
        assert isinstance(msg, str) and msg.startswith(f"cannot read {f}: ")
        assert "\n" not in msg


def test_unusable_cache_dir_is_a_one_line_error(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(not_a_dir), "relations", "--lambda", "7,5"])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith(f"cannot use cache dir {not_a_dir}: ")
    assert "\n" not in msg
    # mult uses no cache
    assert main(["--cache-dir", str(not_a_dir), "mult", "--lambda", "7,5"]) == 0
    assert "m=36" in capsys.readouterr().out


def test_relations_degree12(capsys, tmp_path):
    code, doc = run_json(
        capsys, "relations", "--lambda", "7,5", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["r"] == 1 and doc["mode"] == "modular"
    # modular is the one route: any other mode is argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--lambda", "7,5", "--mode", "exact"])
    assert exc.value.code == 2
    assert "invalid choice: 'exact'" in capsys.readouterr().err


def test_leading_degree12(capsys, tmp_path):
    code, doc = run_json(
        capsys, "leading", "--degree", "12", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["matches_reference"] is True
    assert {e["monomial"] for e in doc["entries"]} == {
        "u5_0*u8_0",
        "u5_0*u8_1",
        "u5_1*u8_0",
        "u5_1*u8_1",
        "u7_0^2",
    }


def test_new_degree12(capsys, tmp_path):
    code, doc = run_json(capsys, "new", "--degree", "12", "--cache-dir", str(tmp_path / "c"))
    assert code == 0
    for item in doc["items"]:
        assert item["old"] == 0


def test_reproduce_idempotent(capsys, tmp_path):
    cdir = str(tmp_path / "c")
    code1 = main(["reproduce", "--cache-dir", cdir, "--format", "text"])
    out1 = capsys.readouterr().out
    assert code1 == 0
    assert "ALL TABLES PASS" in out1
    code2 = main(["reproduce", "--cache-dir", cdir, "--format", "text"])
    out2 = capsys.readouterr().out
    assert code2 == 0
    assert "ALL TABLES PASS" in out2
    assert "word_evals=0" in out2 and "mono_products=0" in out2
    code3 = main(["reproduce", "--cache-dir", cdir, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code3 == 0 and doc["pass"]
    assert all(table["seconds"] >= 0 for table in doc["tables"].values())
    assert doc["stats"]["peak_rss_mb"] > 0
    # a warm pass reads each relation space from the store once, and solves none
    assert (doc["stats"]["spaces_solved"], doc["stats"]["spaces_loaded"]) == (0, 7)
    # the hwv, relations and bundled checks run in one pass per weight, and
    # the tables still come out in their order, with their rows in order
    # (the JSON output sorts its keys, so the payload is read before it)
    from traceforge.cli import Config, cmd_reproduce

    payload, _, ok = cmd_reproduce(Config(Path(cdir), 14, "json"), None)
    tables = payload["tables"]
    assert ok and list(tables) == [
        "catalog", "hilbert", "hwv", "relations", "leading", "new", "bundled"
    ]
    weights = ["7,5", "6,6", "8,5", "7,6", "9,5", "8,6", "7,7"]
    assert list(tables["hwv"]["rows"]) == list(tables["relations"]["rows"]) == weights
    assert list(tables["bundled"]["rows"]) == ["v75.phi", "v66prime.phi", "v66second.phi"]
    for out in (out1, out2):
        passed = [line for line in out.splitlines() if line.startswith("[PASS] ")]
        assert [line.split()[1] for line in passed] == [
            "catalog", "multiplicity", "highest", "relation", "leading", "split",
            "bundled",
        ]


def test_a_process_digests_the_catalog_once(tmp_path, monkeypatch, capsys):
    # the digest is computed with the modules, and every key that holds it
    # reads that value: a reproduce in a fresh process, cold and then warm,
    # computes it once
    from traceforge import glcat

    digest, calls = glcat._catalog_digest, []

    def counted(mods):
        calls.append(mods)
        return digest(mods)

    monkeypatch.setattr(glcat, "_catalog_digest", counted)
    for run in ("cold", "warm"):
        glcat._definition.cache_clear()
        calls.clear()
        assert main(["--cache-dir", str(tmp_path), "reproduce"]) == 0
        assert "ALL TABLES PASS" in capsys.readouterr().out
        assert len(calls) == 1, run


def perturbed(text: str) -> str:
    # a relation plus a generator monomial of its weight: nonzero, no relation
    return text.rstrip() + "\n+ 3*16*(x1*y3 - y1*x3)^2*x3^2*t7^3\n"


def test_warm_hwv_and_verify_reuse_their_verdicts(tmp_path):
    # a second cache on the same dir gives the payloads and lines of the
    # first with no word evaluation and no product: verify answers from its
    # stored verdicts, and hwv checks its basis again, which evaluates nothing
    from traceforge.cli import hwv_check, verify_check
    from traceforge.genmat import EvalCache
    from traceforge.glcat import Partition

    v75 = (ir.files("traceforge") / "data" / "v75.phi").read_text()
    checks = [
        lambda cache: hwv_check(cache, Partition(7, 5)),
        lambda cache: verify_check(cache, "v75.phi", v75),
        lambda cache: verify_check(cache, "nonzero.phi", perturbed(v75)),
        lambda cache: verify_check(cache, "zero.trace", "tr(xxy) - tr(yxx)", trace=True),
    ]
    cold_cache = EvalCache(CacheStore(tmp_path))
    cold = [check(cold_cache) for check in checks]
    assert [ok for _, _, ok in cold] == [True, True, False, True]
    nonzero = cold[2][0]
    assert nonzero["residual_terms"] > 0 and nonzero["membership"] is False
    assert len(nonzero["residual_sample"]) == 10 and nonzero["residual_digest"]
    assert cold_cache.stats.gen_products > 0
    warm_cache = EvalCache(CacheStore(tmp_path))
    assert [check(warm_cache) for check in checks] == cold
    assert warm_cache.stats.gen_products == 0
    assert warm_cache.stats.word_evals == 0
    assert warm_cache.stats.mono_products == 0


def test_cold_verify_of_a_member_makes_only_the_products_of_its_space(tmp_path, monkeypatch):
    # verify solves the relation space first, and the candidate, a member
    # of it, is zero by linearity: no product beyond those of the space,
    # and membership is decided once
    from traceforge import cli, relfinder
    from traceforge.genmat import EvalCache
    from traceforge.glcat import Partition

    alone = EvalCache(CacheStore(tmp_path / "space"))
    relfinder.relation_space(Partition(6, 6), cache=alone)
    member, calls = relfinder.membership, []

    def counted(candidate, space):
        calls.append(space.lam)
        return member(candidate, space)

    monkeypatch.setattr(cli, "membership", counted)
    monkeypatch.setattr(relfinder, "membership", counted)
    cache = EvalCache(CacheStore(tmp_path / "verify"))
    text = (ir.files("traceforge") / "data" / "v66second.phi").read_text()
    doc, _, ok = cli.verify_check(cache, "v66second.phi", text)
    assert ok and doc["zero"] and doc["membership"]
    assert cache.stats.gen_products == alone.stats.gen_products > 0
    assert calls == [Partition(6, 6)]


def test_verify_verdict_is_keyed_on_grammar_and_text(tmp_path):
    from traceforge.cli import verify_check, verify_verdict_key
    from traceforge.genmat import EvalCache

    cache = EvalCache(CacheStore(tmp_path))
    v75 = (ir.files("traceforge") / "data" / "v75.phi").read_text()
    assert verify_check(cache, "v75.phi", v75)[2]
    assert verify_verdict_key(v75, True) != verify_verdict_key(v75, False)
    # under the other grammar the text is parsed, and fails, again
    with pytest.raises(SystemExit) as exc:
        verify_check(cache, "v75.phi", v75, trace=True)
    assert exc.value.code.startswith("bad trace file v75.phi: ")
    # an edited file is evaluated again
    doc, _, ok = verify_check(cache, "v75.phi", perturbed(v75))
    assert not ok and doc["zero"] is False and doc["membership"] is False


def test_a_stored_verdict_is_read_without_parsing(session_cache, monkeypatch):
    # the verdict key is of the text, so a stored verdict needs no parse
    from traceforge import cli
    from traceforge.genmat import EvalCache

    text = (ir.files("traceforge") / "data" / "v66second.phi").read_text()
    stored = cli.verify_check(session_cache, "v66second.phi", text)
    assert stored[2]

    def unparsed(text):
        raise AssertionError("a stored verdict was parsed again")

    monkeypatch.setattr(cli, "parse_phi", unparsed)
    warm = EvalCache(session_cache.store)
    assert cli.verify_check(warm, "v66second.phi", text) == stored


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--file", "BIG"],
        ["--degree-cap", "16", "relations", "--lambda", "8,8"],
    ],
    ids=["verify", "relations"],
)
def test_beyond_packed_capacity_is_a_one_line_error(tmp_path, session_cache, argv):
    # bidegree (8,8): a y degree of 8 does not fit the packed fields
    from traceforge.glcat import catalog

    big = tmp_path / "big.phi"
    big.write_text("t4^2*t4^2*t4^2*t4^2")
    argv = [str(big) if a == "BIG" else a for a in argv]
    root = session_cache.store.root
    catalog(session_cache)
    stored = sorted(root.iterdir())
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(root), *argv])
    msg = exc.value.code
    command = argv[0] if argv[0] == "verify" else argv[2]
    assert isinstance(msg, str) and msg.startswith(f"{command}: beyond the packed")
    assert "\n" not in msg
    # no verdict, relation space or certificate is stored
    assert sorted(root.iterdir()) == stored


def test_beyond_packed_capacity_without_evaluation(capsys, tmp_path):
    # hwv evaluates nothing, so it works at every weight under the cap
    code, doc = run_json(
        capsys, "--degree-cap", "16", "hwv", "--lambda", "8,8", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and doc["verified"] is True and doc["failures"] == []
    assert doc["s"] == 101


# builds the verify verdict key of a phi file, then a relation space and its
# certificates, on a cache over the dir in argv[1]; prints the word
# evaluations of that cache
KEY_PROBE = """
import json, sys
from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.cli import verify_verdict_key
from traceforge.glcat import Partition
from traceforge.relfinder import relation_space, write_certificates

cache = genmat.EvalCache(CacheStore(sys.argv[1]))
verify_verdict_key("t4^2", False)
write_certificates(relation_space(Partition(7, 5), cache=cache), cache.store)
print(json.dumps(cache.stats.word_evals))
"""


def test_keys_on_a_filled_dir_certify_nothing(tmp_path):
    # the catalog verdict is read from the caller's store, and the catalog
    # is not certified again
    assert main(["--cache-dir", str(tmp_path), "relations", "--lambda", "7,5"]) == 0
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRACEFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", KEY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == 0


def test_failed_modular_solve_is_a_one_line_error(tmp_path, monkeypatch):
    # all points equal: every prime overcounts the relations, the prime loop
    # spends its budget, and the command names the weight and the primes
    # tried and stores no relation space
    import numpy as np

    from traceforge import genmat
    from traceforge.glcat import catalog_digest
    from traceforge.relfinder import RELSPACE_SCHEMA

    monkeypatch.setattr(
        genmat, "sample_points", lambda p, n: np.full((n, 18), 5, dtype=np.int64)
    )
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(tmp_path), "relations", "--lambda", "7,5"])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith("relations: ")
    assert "(7,5): modular kernel failed after 20 primes" in msg
    assert "mode" not in msg and "\n" not in msg and "Traceback" not in msg
    cache = genmat.EvalCache(CacheStore(tmp_path))
    key = f"relspace:v{RELSPACE_SCHEMA}:7,5:{catalog_digest()}"
    assert cache.store.get_json(key) is None


WARM_COMMANDS = [
    ["hwv", "--lambda", "7,5"],
    ["relations", "--lambda", "7,5"],
    ["relations", "--lambda", "8,5"],
    ["verify", "--file", str(ir.files("traceforge") / "data" / "v75.phi")],
    ["leading", "--degree", "12"],
    ["new", "--degree", "12"],
    ["new", "--degree", "13"],
]


def test_warm_commands_do_no_fresh_work(tmp_path, monkeypatch):
    # once a cold run of each command has filled the cache dir, a rerun
    # answers from the store: the cache each command builds records no word
    # evaluation, no product, no store miss and no store write, and solves
    # no highest weight basis, since a stored relation space is its relation
    # vectors; only hwv does, because it prints the basis
    from traceforge import cli

    build = cli.build_config
    configs = []

    def recording(args):
        configs.append(build(args))
        return configs[-1]

    monkeypatch.setattr(cli, "build_config", recording)
    for argv in WARM_COMMANDS:
        assert main(["--cache-dir", str(tmp_path), *argv]) == 0, argv
    for argv in WARM_COMMANDS:
        configs.clear()
        assert main(["--cache-dir", str(tmp_path), *argv]) == 0, argv
        assert "cache" in vars(configs[0]), argv  # the command built its cache
        cache = configs[0].cache
        stats, store = cache.stats, cache.store.stats
        fresh = {
            "word_evals": stats.word_evals,
            "mono_products": stats.mono_products,
            "gen_products": stats.gen_products,
            "spaces_solved": stats.spaces_solved,
            "misses": store.misses,
            "writes": store.writes,
        }
        assert fresh == dict.fromkeys(fresh, 0), argv
        assert bool(cache._bases) == (argv[0] == "hwv"), argv
