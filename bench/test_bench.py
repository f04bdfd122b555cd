"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import expected
import inputs
from stats import tail

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "traceforge" / "data"


def bundled_text() -> dict[str, str]:
    return {n: (DATA / n).read_text() for n in expected.BUNDLED}


# -- tail percentile -----------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    xs = list(range(100, 0, -1))
    assert tail(xs) == (90, 90.0, 100)
    value, pct, n = tail([float(i) for i in range(23)])
    assert (value, n) == (12.0, 23)
    assert pct == pytest.approx(100 * 13 / 23)
    assert sum(x > value for x in range(23)) == 10


def test_tail_with_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(i) for i in range(10)]) == (9.0, 100.0, 10)
    assert tail([float(i) for i in range(11)]) == (0.0, 100 / 11, 11)
    with pytest.raises(ValueError):
        tail([])


# -- failure counting ----------------------------------------------------------

def correct_cold_results() -> dict:
    k = expected.key
    return {
        "audit": {str(d): n for d, n in expected.DEGREE_AUDIT.items()},
        "hilbert": {k(l): list(v) for l, v in expected.HILBERT.items()},
        "hwv": {k(l): {"P": expected.HILBERT[l][0], "rank": expected.HILBERT[l][1],
                       "s": expected.HILBERT[l][2], "verified": True}
                for l in expected.WEIGHTS_BY_DEGREE[12]},
        "relations": {k(l): {"r": expected.RELATIONS[l],
                             "certificates": expected.RELATIONS[l]}
                      for l in expected.WEIGHTS_BY_DEGREE[12]},
        "leading": sorted(expected.STAIRCASE[12]),
        "new": {k(l): list(v) for l, v in expected.SPLIT[12].items()},
        "files": {n: {"zero": True, "member": True} for n in expected.BUNDLED},
    }


def failures(checks) -> list[str]:
    return [name for name, ok in checks if not ok]


def test_correct_answers_pass():
    assert failures(expected.check_cold_d12(correct_cold_results())) == []
    d14 = {
        "relations": {expected.key(l): expected.RELATIONS[l]
                      for l in expected.WEIGHTS_BY_DEGREE[14]},
        "leading": sorted(expected.STAIRCASE[14]),
        "new": {expected.key(l): list(v) for l, v in expected.SPLIT[14].items()},
        "word_evals": 0,
    }
    assert failures(expected.check_relations_d14(d14)) == []


def test_wrong_expected_value_is_a_failure(monkeypatch):
    results = correct_cold_results()
    monkeypatch.setitem(expected.RELATIONS, (7, 5), 2)
    monkeypatch.setitem(expected.HILBERT, (9, 5), (284, 188, 95))
    got = failures(expected.check_cold_d12(results))
    assert got == ["hilbert.9,5", "relations.7,5"]


def test_crash_fails_every_check():
    checks = expected.check_cold_d12({})
    assert len(checks) == 17 and len(failures(checks)) == 17


def test_command_exit_status_and_payload_are_checked():
    mult = {"kind": "mult", "args": ["mult", "--lambda", "7,5"],
            "expect": {"lambda": [7, 5]}}
    ok_payload = '{"P": 155, "Q": 119, "m": 36}'
    assert expected.check_command(mult, 0, ok_payload)[1]
    assert not expected.check_command(mult, 1, ok_payload)[1]
    assert not expected.check_command(mult, 0, '{"P": 155, "Q": 119, "m": 35}')[1]
    assert not expected.check_command(mult, 0, "Traceback ...")[1]
    bad = {"kind": "verify", "args": ["verify", "--file", "c.phi"],
           "expect": {"zero": False, "member": False, "lambda": [7, 5]}}
    payload = '{"zero": false, "membership": false, "lambda": [7, 5]}'
    # a nonzero candidate must exit 1; exit 0 is a failure
    assert expected.check_command(bad, 1, payload)[1]
    assert not expected.check_command(bad, 0, payload)[1]


# -- seeded inputs -------------------------------------------------------------

def test_same_seed_same_warm_cli_plan():
    a = inputs.warm_cli_plan(7, str(DATA), bundled_text())
    b = inputs.warm_cli_plan(7, str(DATA), bundled_text())
    c = inputs.warm_cli_plan(8, str(DATA), bundled_text())
    assert a == b
    assert a["commands"] != c["commands"] and a["files"] != c["files"]
    # the seed changes order and candidates, not the mix of commands
    kinds = lambda p: sorted(cmd["kind"] for cmd in p["commands"])  # noqa: E731
    assert kinds(a) == kinds(c)
    assert inputs.cold_d12_plan(3) == inputs.cold_d12_plan(3)


def test_monomial_terms_skip_sums():
    terms = inputs.monomial_terms("- 2*(x1*y2 - y1*x2)*t8^3\n"
                                  "+ 8*x1^2*t12^5\n"
                                  "- 3*(x1\n"
                                  "  + y1)\n"
                                  "- t4^6\n")
    assert terms == ["x1^2*t12^5", "t4^6"]


def test_generated_candidates_have_the_claimed_verdicts():
    sys.path.insert(0, str(ROOT / "src"))
    from traceforge.genmat import EvalCache
    from traceforge.phiparse import parse_phi
    from traceforge.relfinder import verify_zero, verify_zero_abs
    from traceforge.tracelang import parse_trace

    plan = inputs.warm_cli_plan(5, str(DATA), bundled_text())
    cache = EvalCache()
    files = plan["files"]
    assert verify_zero(parse_trace(files["identity.trace"]), cache).zero
    assert not verify_zero(parse_trace(files["nonzero.trace"]), cache).zero
    # the identity is not zero before evaluation
    assert not parse_trace(files["identity.trace"]).is_zero()
    assert not verify_zero_abs(parse_phi(files["perturbed0.phi"]), cache).zero
