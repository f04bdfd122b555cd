"""Generic-matrix evaluation: tracelessness, path agreement, caching."""

import hashlib
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from traceforge.cache import CacheStore
from traceforge.genmat import (
    VARSET18,
    EvalCache,
    _compute_word_comm,
    _compute_word_packed,
    build_x,
    build_y,
    eval_trace_expr,
    eval_word_trace,
    literal_word_trace,
    word_trace_packed,
    word_traces_packed,
)
from traceforge.packedpoly import PackedCapacityError, XCAP, YCAP
from traceforge.polyring import CommPoly
from traceforge.tracelang import cyclic_normalize, parse_trace


def test_x_is_diagonal_and_traceless():
    x = build_x()
    tr = CommPoly.zero(VARSET18)
    for i in range(4):
        tr = tr + x[i][i]
        for j in range(4):
            if i != j:
                assert x[i][j].is_zero()
    assert tr.is_zero()


def test_y_is_traceless_and_generic_off_diagonal():
    y = build_y()
    tr = CommPoly.zero(VARSET18)
    for i in range(4):
        tr = tr + y[i][i]
    assert tr.is_zero()
    # every off-diagonal entry is a single variable
    for i in range(4):
        for j in range(4):
            if i != j:
                assert len(y[i][j]) == 1


def test_tr_xy_matches_hand_expansion():
    x = build_x()
    y = build_y()
    expected = CommPoly.zero(VARSET18)
    for i in range(4):
        expected = expected + x[i][i] * y[i][i]
    assert eval_word_trace("xy") == expected


words = st.text(alphabet="xy", min_size=2, max_size=7)


@settings(max_examples=40, deadline=None)
@given(words)
def test_literal_equals_canonical_path(w):
    assert literal_word_trace(w) == eval_word_trace(w, EvalCache())


def test_packed_and_generic_paths_agree():
    # the whole-matrix packed steps against CommPoly products of build_x()
    # and build_y(), including three catalog words of length 9 and 10
    cache = EvalCache()
    for w in ("xy", "xxyy", "xyxyxy", "yyx", "xxxxxyxyy", "xxyxxyxyy", "xxxyxyxyyy"):
        assert word_trace_packed(w, cache).to_comm(VARSET18) == _compute_word_comm(w), w


# the cyclic-canonical words whose traces the catalog certification
# evaluates, sorted
CATALOG_WORDS = (
    "xx xxx xxxx xxxxxyxyy xxxxxyyxy xxxxyxxyy xxxxyxyy xxxxyy xxxxyyxxy "
    "xxxxyyxy xxxy xxxyxxyxy xxxyxxyy xxxyxy xxxyxyxxy xxxyxyxyyy xxxyxyy "
    "xxxyxyyxyy xxxyy xxxyyxxy xxxyyxxyyy xxxyyxy xxxyyxyyxy xxxyyyxxyy "
    "xxxyyyxyxy xxy xxyxxy xxyxxyxyy xxyxxyxyyy xxyxxyyxy xxyxxyyyxy xxyxy "
    "xxyxyxyxyy xxyxyxyy xxyxyxyyxy xxyxyy xxyxyyxxyy xxyxyyxy xxyxyyxyxy "
    "xxyxyyxyy xxyxyyy xxyxyyyy xxyxyyyyy xxyy xxyyxxyy xxyyxxyyxy xxyyxy "
    "xxyyxyxy xxyyxyxyxy xxyyxyyxy xxyyxyyy xxyyxyyyy xxyyy xxyyyxy xxyyyxyy "
    "xxyyyy xxyyyyxy xxyyyyxyy xxyyyyyxy xy xyxy xyxyxy xyxyxyxy xyxyy "
    "xyxyyxyyy xyxyyy xyxyyyxyy xyy xyyxyy xyyy yy yyy yyyy"
).split()

# sha256 over to_bytes() of the traces of CATALOG_WORDS, in that order, as
# computed by the entry-by-entry PackedPoly products that the whole-matrix
# steps replaced
CATALOG_WORDS_SHA256 = "7b6b7f8819a593138420c24aa2136be86e32cc342ed7e6fa19222eb27cb7d9ed"


def test_catalog_word_traces_are_pinned():
    from traceforge import glcat

    cache = EvalCache()
    glcat._certify(glcat._build_modules(), cache)
    assert sorted(cache._words) == list(CATALOG_WORDS)
    assert cache.stats.word_evals == len(CATALOG_WORDS) == 73
    h = hashlib.sha256()
    for w in CATALOG_WORDS:
        h.update(cache._words[w].to_bytes())
    assert h.hexdigest() == CATALOG_WORDS_SHA256


@pytest.mark.extended
def test_catalog_words_agree_with_the_generic_path():
    cache = EvalCache()
    for w in CATALOG_WORDS:
        assert word_trace_packed(w, cache).to_comm(VARSET18) == _compute_word_comm(w), w


def test_largest_packed_word_stays_int64():
    # each letter multiplies the largest coefficient by at most the number of
    # terms in a column of x or y, and the trace by at most 4 more
    w = "x" * XCAP + "y" * YCAP
    p = _compute_word_packed(w)
    assert p.coeffs.dtype == np.int64 and not p.is_big()
    assert p.den == 1 and (p.xdeg, p.ydeg) == (XCAP, YCAP)
    assert 0 < p.bound <= 4 * 6 ** (XCAP + YCAP - 1) < 1 << 62
    # one letter more and an x exponent would carry out of its field
    with pytest.raises(PackedCapacityError):
        _compute_word_packed("x" + w)


def test_generic_fallback_beyond_packed_capacity():
    w = "x" * (XCAP + 1) + "yy"
    p = eval_word_trace(w, EvalCache())
    assert not p.is_zero()
    # bidegree is preserved per monomial: 16 in the x block, 2 in the y block
    for m in p.terms:
        assert sum(m[:3]) == XCAP + 1
        assert sum(m[3:]) == 2


def test_eval_trace_expr_linear_combination():
    cache = EvalCache()
    e = parse_trace("tr(xxy) - tr(yxx)")
    assert eval_trace_expr(e, cache).is_zero()
    e2 = parse_trace("2tr(xy)tr(xy)")
    t = eval_word_trace("xy", cache)
    assert eval_trace_expr(e2, cache) == (t * t).scale(2)


def test_cache_counts_and_disk_round_trip(tmp_path):
    store = CacheStore(tmp_path / "c")
    c1 = EvalCache(store=store)
    eval_word_trace("xyxy", c1)
    eval_word_trace("yxyx", c1)  # same cyclic class, no new eval
    assert c1.stats.word_evals == 1
    c2 = EvalCache(store=store)
    p = eval_word_trace("xyxy", c2)
    assert c2.stats.word_evals == 0
    assert c2.stats.disk_hits == 1
    assert p == eval_word_trace("xyxy", EvalCache())


def test_word_traces_share_prefixes(tmp_path, monkeypatch):
    # a batch computes each cyclic class once, multiplies out each proper
    # prefix of the sorted canonical words once, and multiplies each word's
    # last letter into the diagonal only, once per word; it gives the bytes
    # of the one-word path, and a class the store already holds is read,
    # not computed
    from traceforge import genmat

    words = ["xxyy", "yxxy", "xxyyxy", "xxyxy", "yxyxy", "xxyyy"]
    keys = sorted({cyclic_normalize(w) for w in words})
    store = CacheStore(tmp_path / "s")
    word_trace_packed("xyxyy", EvalCache(store))
    fresh = [k for k in keys if k != "xyxyy"]
    steps, traces = [], []
    step, trace = genmat._times_letter, genmat._trace_times_letter
    monkeypatch.setattr(
        genmat, "_times_letter", lambda k, c, ch: steps.append(ch) or step(k, c, ch)
    )
    monkeypatch.setattr(
        genmat, "_trace_times_letter", lambda k, c, ch: traces.append(ch) or trace(k, c, ch)
    )
    cache = EvalCache(store)
    word_traces_packed(words, cache)
    assert (cache.stats.word_evals, cache.stats.disk_hits) == (len(fresh), 1)
    assert len(steps) == len({k[:i] for k in fresh for i in range(1, len(k))})
    assert traces == [k[-1] for k in fresh]
    assert len(steps) + len(traces) < sum(map(len, fresh))
    for k in keys:
        assert cache._words[k].to_bytes() == _compute_word_packed(k).to_bytes()
    word_traces_packed(words, cache)
    assert (cache.stats.word_evals, cache.stats.disk_hits) == (len(fresh), 1)


def test_a_word_that_is_a_prefix_of_the_one_before_is_traced_alone():
    # out of sorted order, and repeated: a word whose whole product was
    # never made, because the trace step of the word before it stopped at
    # the diagonal, still gets its own trace, which the generic-matrix
    # product gives
    from traceforge import genmat

    words = ["xxyy", "xxy", "xx", "xxy", "yx", "xyxyy", "xy"]
    got = list(genmat._compute_words_packed(words))
    assert [w for w, _ in got] == words
    for w, poly in got:
        assert poly.to_comm(VARSET18) == _compute_word_comm(w), w


def test_word_traces_reject_what_one_word_rejects():
    with pytest.raises(ValueError):
        word_traces_packed(["xy", "x"], EvalCache())
    with pytest.raises(PackedCapacityError):
        word_traces_packed(["xy", "x" * (XCAP + 1) + "y"], EvalCache())


def test_short_word_rejected():
    with pytest.raises(ValueError):
        eval_word_trace("x")
    with pytest.raises(ValueError):
        literal_word_trace("y")


def test_cyclic_invariance_exhaustive_short():
    # all words up to length 5, one rotation each
    for n in range(2, 6):
        for bits in itertools.product("xy", repeat=n):
            w = "".join(bits)
            r = w[1:] + w[0]
            assert literal_word_trace(w) == literal_word_trace(r)
