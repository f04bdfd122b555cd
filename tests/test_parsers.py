"""Round trips and validation for the two text notations."""

from fractions import Fraction

import pytest

from traceforge.glcat import AbsPoly, phi
from traceforge.phiparse import PhiParseError, format_phi, parse_phi
from traceforge.tracelang import TraceParseError, format_trace_expr, parse_trace


def gen(i, j):
    return AbsPoly.gen(i, j)


def test_t_alone_for_zero_content_module():
    # module 4 = (2,2): a=0, b=2, so t4^2 is one copy of u4_0
    assert parse_phi("t4^2") == gen(4, 0)
    assert parse_phi("t4^4") == gen(4, 0) * gen(4, 0)


def test_z_symbol_selects_generator():
    # module 5 = (3,2): a=1; z5^(1,0) -> u5_0, z5^(0,1) -> u5_1
    assert parse_phi("z5^(1,0)*t5^2") == gen(5, 0)
    assert parse_phi("z5^(0,1)*t5^2") == gen(5, 1)


def test_plain_run_selects_generator():
    # x5*t5^2 is the same one-letter content, q = 0
    assert parse_phi("x5*t5^2") == gen(5, 0)
    assert parse_phi("y5*t5^2") == gen(5, 1)
    # module 1 = (2,0): a=2; x1*y1 -> u1_1
    assert parse_phi("x1*y1") == gen(1, 1)
    assert parse_phi("x1^2") == gen(1, 0)


def test_binomial_expansion():
    # (x1 - y1)^2 = u1_0 - 2 u1_1 + u1_2
    got = parse_phi("(x1 - y1)^2")
    want = gen(1, 0) - gen(1, 1).scale(2) + gen(1, 2)
    assert got == want


def test_commutator_style_factor():
    got = parse_phi("(x1*y2 - y1*x2)^2*(x2*y8 - y2*x8)*t8^3")
    want = (
        gen(1, 0) * gen(2, 2) * gen(8, 1)
        - gen(1, 0) * gen(2, 3) * gen(8, 0)
        - (gen(1, 1) * gen(2, 1) * gen(8, 1)).scale(2)
        + (gen(1, 1) * gen(2, 2) * gen(8, 0)).scale(2)
        + gen(1, 2) * gen(2, 0) * gen(8, 1)
        - gen(1, 2) * gen(2, 1) * gen(8, 0)
    )
    assert got == want


def test_completeness_checked_after_expansion():
    # each expanded monomial must carry full letter degree per module;
    # the unsquared commutator leaves both modules short
    with pytest.raises(PhiParseError):
        parse_phi("x1*y2 - y1*x2")


def test_incomplete_content_rejected():
    with pytest.raises(PhiParseError):
        parse_phi("x1")  # module 1 needs letter degree 2
    with pytest.raises(PhiParseError):
        parse_phi("t5^2")  # module 5 needs one letter
    with pytest.raises(PhiParseError):
        parse_phi("z5^(1,1)*t5^2")  # p + q exceeds a = 1
    with pytest.raises(PhiParseError):
        parse_phi("x4*t4^2")  # module 4 has no letters


def test_two_plain_runs_in_one_module_rejected():
    # x1^2 * (x1*y1) would need two separate content factors for module 1
    with pytest.raises(PhiParseError):
        parse_phi("x1^3*y1")


def test_mixed_z_and_run_same_module():
    # one z-symbol and one plain run for the same module is fine
    got = parse_phi("z1^(2,0)*x1*y1")
    assert got == gen(1, 0) * gen(1, 1)


def test_malformed_syntax_positions():
    for text in ("", "+", "3**t4^2", "t13^2", "z5^(1)*t5^2", "(x1-y1", "x1-y1)"):
        with pytest.raises(PhiParseError):
            parse_phi(text)


# (parser, error class, text, message, position); the zero-denominator
# position differs on purpose: a trace expression reports the end of the
# numerator, a phi expression the end of the denominator
MALFORMED = [
    (parse_phi, PhiParseError, "t4^2*(x1", "expected ')'", 8),
    (parse_phi, PhiParseError, "u13_0", "expected a rational, a variable or '('", 0),
    (parse_phi, PhiParseError, "", "expected a rational, a variable or '('", 0),
    (parse_phi, PhiParseError, "1 / 0 *t4^2", "zero denominator", 5),
    (parse_phi, PhiParseError, "2/ *t4^2", "expected integer", 3),
    (parse_phi, PhiParseError, "t13", "module index 13 out of range 1..12", 3),
    (parse_phi, PhiParseError, "t4^2 t4^2", "trailing input", 5),
    (parse_trace, TraceParseError, "tr(xy", "expected ')'", 5),
    (parse_trace, TraceParseError, "", "expected a trace factor", 0),
    (parse_trace, TraceParseError, "1 / 0 tr(xy)", "zero denominator", 1),
    (parse_trace, TraceParseError, "2/ tr(xy)", "expected integer", 3),
    (parse_trace, TraceParseError, "tr(x^)", "expected integer", 5),
    (parse_trace, TraceParseError, "tr(xy))", "trailing input", 6),
]


@pytest.mark.parametrize(
    "parse, error, text, msg, pos", MALFORMED, ids=[f"{m[1].__name__}-{m[2]}" for m in MALFORMED]
)
def test_error_messages_and_positions(parse, error, text, msg, pos):
    with pytest.raises(error) as exc:
        parse(text)
    assert exc.value.pos == pos
    assert str(exc.value) == f"{msg} (at position {pos})"


def test_whitespace_and_newlines_allowed():
    text = """
      3*(x1*y2 - y1*x2)^2
        *(x2*y8 - y2*x8)*t8^3
      - 2*t4^2*(x1 - y1)^2
    """
    compact = "3*(x1*y2-y1*x2)^2*(x2*y8-y2*x8)*t8^3-2*t4^2*(x1-y1)^2"
    assert parse_phi(text) == parse_phi(compact)


def test_format_phi_round_trip():
    samples = [
        gen(1, 0) * gen(2, 3) - gen(11, 2).scale(Fraction(5, 3)),
        gen(4, 0) * gen(4, 0) * gen(1, 1),
        gen(12, 0),
        gen(6, 1) * gen(6, 1) * gen(6, 2),
        AbsPoly.zero(),
    ]
    for p in samples:
        assert parse_phi(format_phi(p)) == p


@pytest.mark.parametrize(
    "text, want",
    [
        ("3", "3"),
        ("1/2", "1/2"),
        ("-7", "-7"),
        ("-2/5", "-2/5"),
        ("1", "1"),
        ("-1", "-1"),
        ("t4^2 + 3", "t4^2 + 3"),
        ("t4^2 - 1/2", "t4^2 - 1/2"),
        ("-4 + 2*t4^2 - t4^2*t4^2", "-t4^4 + 2*t4^2 - 4"),
    ],
)
def test_format_phi_renders_a_constant_as_its_coefficient(text, want):
    p = parse_phi(text)
    assert format_phi(p) == want
    assert parse_phi(want) == p


def test_trace_format_round_trip_on_catalog_images():
    for p in (gen(1, 1), gen(5, 0) * gen(4, 0), gen(7, 0)):
        e = phi(p)
        assert parse_trace(format_trace_expr(e)) == e
