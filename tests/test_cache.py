"""Disk store: round trips, the self-checking entry header, packed
polynomial entries, stat counters, one file per entry, the catalog verdict
on a warm store, and no stored word trace."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforge import genmat, glcat
from traceforge.cache import _LENGTH, CacheStore, digest_text, sha256
from traceforge.glcat import Partition
from traceforge.packedpoly import NVARS, NX, PackedPoly
from traceforge.genmat import EvalCache
from traceforge.hwv import hwv_basis, hwv_verify
from traceforge.relfinder import relation_space, write_certificates


def mono(**exps):
    """18-variable exponent tuple from x0=.., y4=.. style keywords."""
    out = [0] * NVARS
    for name, e in exps.items():
        out[int(name[1:]) + (0 if name[0] == "x" else NX)] = e
    return tuple(out)


def sample_poly():
    # (a^2 - 7/3 b) a + 2 in two of the 18 variables, so den = 3
    return PackedPoly.from_terms(
        [(mono(x0=3), 1), (mono(x0=1, y0=1), Fraction(-7, 3)), (mono(), 2)]
    )


def assert_same(p, q):
    assert p == q
    assert p.coeffs.dtype == q.coeffs.dtype
    assert (p.xdeg, p.ydeg) == (q.xdeg, q.ydeg)


def test_poly_round_trip(tmp_path):
    store = CacheStore(tmp_path / "s")
    p = sample_poly()
    assert store.get_poly("k") is None
    store.put_poly("k", p)
    assert_same(store.get_poly("k"), p)
    assert store.stats.writes == 1
    assert store.stats.hits == 1
    assert store.stats.misses == 1


@pytest.mark.parametrize(
    "poly",
    [
        PackedPoly.zero(),
        sample_poly(),
        PackedPoly.from_terms([(mono(x1=2), Fraction(5, 1 << 70)), (mono(y14=1), 1)]),
        PackedPoly.from_terms([(mono(x2=15, y3=7), 1 << 70), (mono(), -(1 << 90) - 1)]),
        PackedPoly.from_terms([(mono(y0=1), Fraction(-(1 << 80), 3))]),
    ],
    ids=["zero", "den3", "den2^70", "object", "object-den3"],
)
def test_exact_round_trips(tmp_path, poly):
    store = CacheStore(tmp_path / "s")
    store.put_poly("k", poly)
    assert_same(store.get_poly("k"), poly)
    assert_same(PackedPoly.from_bytes(poly.to_bytes()), poly)


exponents = st.tuples(
    *([st.integers(0, 15)] * NX), *([st.integers(0, 7)] * (NVARS - NX))
)
numerators = st.one_of(
    st.integers(-12, 12),
    st.integers((1 << 62) - 4, (1 << 62) + 4),
    st.integers(-(1 << 100), 1 << 100),
)
denominators = st.sampled_from((1, 1, 2, 3, 1 << 40, 1 << 66))
term_dicts = st.dictionaries(
    exponents, st.builds(Fraction, numerators, denominators), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(term_dicts)
def test_packed_bytes_round_trip(terms):
    p = PackedPoly.from_terms(terms.items())
    assert_same(PackedPoly.from_bytes(p.to_bytes()), p)


def _bad_entries(poly):
    data = poly.to_bytes()
    rev = PackedPoly(poly.keys[::-1].copy(), poly.coeffs[::-1].copy(), poly.den, 0, 0)
    huge = poly.coeffs.copy()
    huge[0] = -(1 << 63)
    return {
        "bad-magic": b"XXXX" + data[4:],
        "truncated": data[:-8],
        "unsorted-keys": rev.to_bytes(),
        "int64-out-of-range": PackedPoly(poly.keys, huge, poly.den, 0, 0).to_bytes(),
    }


@pytest.mark.parametrize(
    "damage", ["bad-magic", "truncated", "unsorted-keys", "int64-out-of-range"]
)
def test_a_damaged_generator_polynomial_is_recomputed(tmp_path, damage):
    store = CacheStore(tmp_path / "s")
    gens = glcat._gen_evals(EvalCache(store))
    key = _gens_key(store)
    good = store._path(key).read_bytes()
    # one polynomial of the entry damaged, behind a valid header and valid
    # lengths, so that the read reaches PackedPoly.from_bytes
    parts = [p.to_bytes() for p in gens]
    assert len(gens[3].keys) > 1 and gens[3].coeffs.dtype == np.int64
    parts[3] = _bad_entries(gens[3])[damage]
    store._write(key, b"".join(_LENGTH.pack(len(p)) + p for p in parts))
    store.stats.corrupt = 0
    assert store.get_polys(key, 30) is None
    assert store.stats.corrupt == 1
    cache = EvalCache(store)
    got = glcat._gen_evals(cache)
    # composed again from word traces computed afresh
    assert cache.stats.word_evals == 73 and store.stats.corrupt == 2
    assert [p.to_bytes() for p in got] == [p.to_bytes() for p in gens]
    # and written back over the damaged entry
    assert store._path(key).read_bytes() == good


def test_zero_coefficient_and_bad_den_are_rejected():
    p = sample_poly()
    zero_coeff = PackedPoly(p.keys, np.zeros_like(p.coeffs), p.den, 0, 0)
    with pytest.raises(ValueError):
        PackedPoly.from_bytes(zero_coeff.to_bytes())
    for den in (0, -3):
        with pytest.raises(ValueError):
            PackedPoly.from_bytes(PackedPoly(p.keys, p.coeffs, den, 0, 0).to_bytes())


@pytest.mark.parametrize(
    "ext, payload",
    [
        (".poly", b"x11^2"),
        (".ppoly", sample_poly().to_bytes()),
        (".json", b'{"v":1}'),
    ],
    ids=["poly", "ppoly", "json"],
)
def test_text_entries_of_earlier_versions_are_ignored(tmp_path, ext, payload):
    # an entry with a valid sidecar, as earlier versions wrote them
    store = CacheStore(tmp_path / "s")
    old = store.root / (digest_text("k")[:40] + ext)
    old.write_bytes(payload)
    old.with_name(old.name + ".sha256").write_text(hashlib.sha256(payload).hexdigest())
    get = store.get_json if ext == ".json" else store.get_poly
    assert get("k") is None
    assert (store.stats.misses, store.stats.corrupt) == (1, 0)


def test_json_round_trip(tmp_path):
    store = CacheStore(tmp_path / "s")
    doc = {"r": 2, "zeta": [["1/1", "0/1"]], "names": ["u7_0^2"]}
    store.put_json("summary", doc)
    assert store.get_json("summary") == doc


def test_distinct_keys_do_not_collide(tmp_path):
    store = CacheStore(tmp_path / "s")
    store.put_json("x", 1)
    store.put_json("y", 2)
    assert store.get_json("x") == 1
    assert store.get_json("y") == 2


def test_corrupted_payload_is_a_miss(tmp_path):
    # edited JSON behind a valid header: unparseable, then not UTF-8
    store = CacheStore(tmp_path / "s")
    store.put_json("k", {"v": 1})
    for corrupt, payload in enumerate((b'{"v": 999', b'{"v": "\xff"}'), 1):
        store._write("k", payload)
        assert store.get_json("k") is None
        assert store.stats.corrupt == corrupt


def _damaged_files(data):
    header = 40  # magic, format version, SHA-256 of the payload
    flipped = bytearray(data)
    flipped[header + 20] ^= 0x01
    return {
        "truncated-header": data[: header - 1],
        "wrong-magic": b"XXXX" + data[4:],
        "wrong-version": data[:4] + (99).to_bytes(4, "little") + data[8:],
        "flipped-payload-byte": bytes(flipped),
    }


@pytest.mark.parametrize(
    "damage", ["truncated-header", "wrong-magic", "wrong-version", "flipped-payload-byte"]
)
def test_damaged_header_is_corrupt_and_rewritten(tmp_path, damage):
    store = CacheStore(tmp_path / "s")
    gens = glcat._gen_evals(EvalCache(store))
    key = _gens_key(store)
    path = store._path(key)
    good = path.read_bytes()
    path.write_bytes(_damaged_files(good)[damage])
    cache = EvalCache(store)
    got = glcat._gen_evals(cache)
    assert cache.stats.word_evals == 73 and store.stats.corrupt == 1
    assert [p.to_bytes() for p in got] == [p.to_bytes() for p in gens]
    assert path.read_bytes() == good
    assert store.get_polys(key, 30) is not None and store.stats.corrupt == 1


def test_unparseable_poly_counts_corrupt(tmp_path):
    store = CacheStore(tmp_path / "s")
    store.put_poly("k", sample_poly())
    store._write("k", b"not a polynomial")
    assert store.get_poly("k") is None
    assert store.stats.corrupt == 1


def test_one_file_per_entry(tmp_path):
    store = CacheStore(tmp_path / "s")
    space = relation_space(Partition(7, 5), cache=EvalCache(store))
    write_certificates(space, store)
    names = [p.name for p in store.root.iterdir()]
    assert store.stats.writes > 0
    assert len(names) == store.stats.writes
    assert not [n for n in names if n.endswith(".sha256") or n.startswith(".tmp-")]


def test_digest_text_stable():
    assert digest_text("abc") == digest_text("abc")
    assert digest_text("abc") != digest_text("abd")


@pytest.mark.parametrize("size", [0, 3, 64, (1 << 20) + 17])
def test_the_store_hashes_as_hashlib_does(tmp_path, size):
    # hashlib, imported by this test, is an oracle independent of the
    # SHA-256 the store imports: the key digest of a str, the entry header
    # of a bytes payload, and the check of a memoryview slice on a read
    data = (bytes(range(251)) * (size // 251 + 1))[:size]
    text = data.decode("latin-1")
    assert digest_text(text) == hashlib.sha256(text.encode()).hexdigest()
    assert sha256(memoryview(b"TFCE" + data)[4:]).digest() == hashlib.sha256(data).digest()
    store = CacheStore(tmp_path / "s")
    store._write("k", data)
    header = store._path("k").read_bytes()[:40]
    assert header == b"TFCE" + (1).to_bytes(4, "little") + hashlib.sha256(data).digest()
    assert store._read("k", bytes) == data
    assert store.stats.hits == 1 and store.stats.corrupt == 0


def test_warm_store_is_not_certified_again_on_the_default_cache(session_cache):
    # a warm store: the catalog verdict and the (7,5) relation space
    relation_space(Partition(7, 5), cache=session_cache)

    warm = genmat.EvalCache(session_cache.store)
    space = relation_space(Partition(7, 5), cache=warm)
    assert space.from_cache
    assert warm.stats.word_evals == 0

    cache = EvalCache(session_cache.store)
    rep = hwv_verify(hwv_basis((7, 5)), evaluate=True, cache=cache)
    assert rep.ok
    assert cache.stats.word_evals == 0


def _gens_key(store) -> str:
    return f"gens:v1:{glcat.catalog_digest()}"


def test_the_catalog_stores_its_generators_and_verdict_and_no_word_trace(tmp_path):
    # the 73 word traces of a certification stay on the cache
    store = CacheStore(tmp_path / "s")
    cache = EvalCache(store)
    glcat.catalog(cache)
    assert cache.stats.word_evals == 73 and len(cache._words) == 73
    keys = (_gens_key(store), f"catalog-cert:{glcat.catalog_digest()}")
    assert store.stats.writes == 2
    assert sorted(store.root.iterdir()) == sorted(store._path(k) for k in keys)
    assert not store._path("wordtrace:xx").exists()


def test_the_generators_are_read_back_as_one_entry(tmp_path):
    # the first cache composes the 30 generators from word traces and writes
    # them as one entry; a fresh cache over the store reads that entry, and
    # no word trace, and gets the same bytes
    store = CacheStore(tmp_path / "s")
    first = EvalCache(store)
    gens = glcat._gen_evals(first)
    assert first.stats.word_evals > 0
    assert [p.to_bytes() for p in store.get_polys(_gens_key(store), 30)] == [
        p.to_bytes() for p in gens
    ]
    reads = store.stats.hits
    again = EvalCache(store)
    got = glcat._gen_evals(again)
    assert (again.stats.word_evals, again.stats.disk_hits) == (0, 0)
    # two reads: the catalog verdict and the generator entry
    assert store.stats.hits == reads + 2 and store.stats.corrupt == 0
    assert [p.to_bytes() for p in got] == [p.to_bytes() for p in gens]


@pytest.mark.parametrize("damage", ["flipped-byte", "truncated", "29-polys", "short-length"])
def test_a_damaged_generator_entry_is_composed_again_and_rewritten(tmp_path, damage):
    store = CacheStore(tmp_path / "s")
    gens = glcat._gen_evals(EvalCache(store))
    key = _gens_key(store)
    path = store._path(key)
    data = path.read_bytes()
    payload = data[40:]
    if damage == "flipped-byte":
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(flipped))
    elif damage == "truncated":
        # behind a valid header, so that the read reaches the decoder
        store._write(key, payload[:-3])
    elif damage == "29-polys":
        store.put_polys(key, gens[:29])
    else:
        store._write(key, payload + b"\x01\x00")
    store.stats.corrupt = 0
    cache = EvalCache(store)
    got = glcat._gen_evals(cache)
    assert store.stats.corrupt == 1
    # composed again from word traces computed afresh, and the entry rewritten
    assert cache.stats.word_evals == 73
    assert [p.to_bytes() for p in got] == [p.to_bytes() for p in gens]
    assert path.read_bytes() == data
    third = EvalCache(store)
    glcat._gen_evals(third)
    assert third.stats.word_evals == 0 and store.stats.corrupt == 1


def test_a_generator_entry_of_another_catalog_misses(tmp_path, monkeypatch):
    # the entry is keyed on the catalog digest: the generators stored under
    # another digest are not read, and the ones of this catalog are written
    store = CacheStore(tmp_path / "s")
    gens = glcat._gen_evals(EvalCache(store))
    key = _gens_key(store)
    other = "gens:v1:" + "0" * 64
    store.put_polys(other, gens[::-1])
    store._path(key).unlink()
    cache = EvalCache(store)
    got = glcat._gen_evals(cache)
    assert cache.stats.word_evals == 73
    assert [p.to_bytes() for p in got] == [p.to_bytes() for p in gens]
    assert store._path(key).exists() and store.stats.corrupt == 0
