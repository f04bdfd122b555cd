"""Command line interface: payload shapes, exit codes, env handling."""

import importlib.resources as ir
import json
import os

import pytest

from traceforge.cli import main


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


def test_env_format_override(capsys, monkeypatch):
    monkeypatch.setenv("TRACEFORGE_FORMAT", "json")
    code = main(["mult", "--lambda", "7,5"])
    out = capsys.readouterr().out
    assert code == 0
    json.loads(out)


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("TRACEFORGE_FORMAT", "text")
    code, doc = run_json(capsys, "mult", "--lambda", "7,5")
    assert code == 0
    assert doc["m"] == 36


def test_invalid_format_rejected():
    with pytest.raises(SystemExit):
        main(["mult", "--lambda", "7,5", "--format", "yaml"])


def test_catalog_smoke(capsys, tmp_path):
    code, doc = run_json(capsys, "catalog", "--cache-dir", str(tmp_path / "c"))
    assert code == 0
    assert len(doc["modules"]) == 12


def test_hwv_small(capsys, tmp_path):
    code, doc = run_json(
        capsys, "hwv", "--lambda", "6,6", "--no-eval", "--cache-dir", str(tmp_path / "c")
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


@pytest.mark.parametrize(
    "grammar, text, message",
    [
        ("--phi", "t4^2*(x1", "bad phi file"),
        ("--phi", "u13_0", "bad phi file"),
        ("--trace", "tr(xy", "bad trace file"),
        ("--trace", "tr(x) - tr(y)", "bad trace file"),
    ],
)
def test_verify_malformed_file_is_a_one_line_error(tmp_path, grammar, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--file", str(f), grammar, "--cache-dir", str(tmp_path / "c")])
    msg = exc.value.code
    assert isinstance(msg, str) and msg.startswith(f"{message} {f}: ")
    assert "\n" not in msg


@pytest.mark.parametrize("grammar", ["--phi", "--trace"])
def test_verify_unreadable_file_is_a_one_line_error(tmp_path, grammar):
    binary = tmp_path / "binary.phi"
    binary.write_bytes(b"\xff\xfe\x00")
    for f in (tmp_path / "missing.phi", tmp_path, binary):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--file", str(f), grammar, "--cache-dir", str(tmp_path / "c")])
        msg = exc.value.code
        assert isinstance(msg, str) and msg.startswith(f"cannot read {f}: ")
        assert "\n" not in msg


def test_relations_degree12(capsys, tmp_path):
    code, doc = run_json(
        capsys, "relations", "--lambda", "7,5", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert doc["r"] == 1


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


@pytest.mark.extended
def test_reproduce_idempotent(capsys, tmp_path):
    cdir = str(tmp_path / "c")
    code1 = main(["reproduce", "--paper-tables", "--cache-dir", cdir, "--format", "text"])
    out1 = capsys.readouterr().out
    assert code1 == 0
    assert "ALL TABLES PASS" in out1
    code2 = main(["reproduce", "--paper-tables", "--cache-dir", cdir, "--format", "text"])
    out2 = capsys.readouterr().out
    assert code2 == 0
    assert "ALL TABLES PASS" in out2
    assert "word_evals=0" in out2 and "mono_products=0" in out2
    code3 = main(["reproduce", "--paper-tables", "--cache-dir", cdir, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code3 == 0 and doc["pass"]
    assert all(table["seconds"] >= 0 for table in doc["tables"].values())


def test_hwv_verdict_key_tracks_the_basis():
    import dataclasses

    from traceforge.cli import HWV_CHECK_SCHEMA, hwv_verdict_key
    from traceforge.glcat import Partition
    from traceforge.hwv import hwv_basis

    basis = hwv_basis(Partition(7, 5))
    key = hwv_verdict_key(basis)
    assert key.startswith(f"hwvcheck:v{HWV_CHECK_SCHEMA}:7,5:")
    assert hwv_verdict_key(hwv_basis(Partition(7, 5))) == key
    scaled = dataclasses.replace(
        basis, vectors=(basis.vectors[0].scale(2),) + basis.vectors[1:]
    )
    assert hwv_verdict_key(scaled) != key
    dropped = dataclasses.replace(basis, vectors=basis.vectors[1:])
    assert hwv_verdict_key(dropped) != key
