#!/usr/bin/env bash
# Recompute every frozen reference table twice against one cache directory:
# a fresh temporary dir, removed on exit, or the dir TRACEFORGE_CACHE_DIR
# names, which must then be empty or absent (the script fails otherwise,
# since pass 1 must start cold).
# The first pass must multiply no word traces (each highest weight basis is
# checked exactly by abs_delta, whose evaluated side the catalog certificate
# proves; the relation space of the weight is found from values at points
# mod p, and its relation vectors are proven zero by assembling their
# matrix on the slice y11 = 0 from generator-monomial products) and must
# evaluate each of
# the 73 catalog words exactly once: the script fails unless it reports zero
# trace-monomial products and 73 word evaluations.  It must also compute the
# generator-monomial products that its proofs need, none of which outlives
# the proof that made it: in each proof, each prefix of a leaf (the product
# of all but the last generator of a leaf, and its shorter prefixes) once,
# and the leaves that end in one generator combined per column where that
# needs fewer products: the script fails unless it reports 932 of them.  It must
# store answers only, and no word trace: the catalog verdict, the 30 generator
# evaluations as one entry, the seven relation spaces, the certificates of
# their 16 relation vectors and the verdicts of the three bundled files, so
# the script fails unless it reports exactly 28 cache writes.  It must
# leave one file per cache write: the script fails unless the cache dir then
# holds exactly as many files as the pass reports cache writes, none of them
# a checksum sidecar or a leftover temporary, and those files must hold the
# pinned bytes: the script fails unless one sha256 over the sorted list of
# (file name, file sha256) equals COLD_MANIFEST, so a change that alters any
# stored byte must change that literal.  It must stay within 64 MB: the
# script fails if the `peak_rss_mb` of its `stats:` line exceeds 64, the
# memory the degree-14 weights are meant to fit in.  Nor may it import
# `_hashlib`, which maps OpenSSL's libcrypto only to hash (the store hashes
# with CPython's own SHA-256): the script fails if the `-X importtime` lines
# of the pass name it after the interpreter's site hooks.  The second pass must do
# no fresh work: the script fails unless it reports zero word evaluations,
# trace-monomial and generator-monomial products, zero cache misses, corrupt
# entries and writes, and zero relation spaces solved, and unless it reads
# each of the seven relation spaces from the store exactly once (later
# tables use the space the cache holds).  Then, in one process on a fresh cache over
# the same directory, `new_relations(14)` and the leading analysis of the
# three degree-14 spaces must read every relation space as its stored
# relation vectors: the script fails unless that cache solved no highest
# weight basis and reports zero word evaluations, trace-monomial and
# generator-monomial products, cache misses and cache writes.  Then, on
# another fresh cache, the three bundled files, each checked after the
# relation space of its weight, must be members of the spaces the cache
# holds: the script fails unless each reports zero and that cache reports
# zero word evaluations, trace-monomial and generator-monomial products,
# cache misses and cache writes.
# Then a warm `mult`, `hwv`, `relations` (for a degree-12 and a
# degree-13 weight), `verify`, `leading` and `new` must not import numpy: they
# build no array (hwv checks its basis in the generator algebra, and verify
# reads its stored verdict), and the script
# fails if any one of them loads it.  Nor may they import `dataclasses` or
# `inspect` (a dataclass compiles generated methods at every import, which
# costs every process start-up time), or `_hashlib`: the script fails if any
# one of them loads any of the three; what the interpreter's site hooks
# import does not count.
# Then a cold `relations --lambda 9,5` in a fresh cache dir, which proves
# its relation vectors by assembling them in a process that has run nothing
# else, must find r = 2 and the zeta that the first pass stored for (9,5):
# the script fails otherwise.
# Then a cold `relations --lambda 7,5` in another fresh cache dir, a second
# weight solved and proven from nothing, must find r = 1 and the zeta that
# the first pass stored for (7,5): the script fails otherwise.  The modular
# route is the one route, so these two cold runs and the frozen zeta digests
# of the tests stand in for a second route.
# Last, a `verify` of a candidate and a `relations --degree-cap 16 --lambda
# 8,8` beyond the packed evaluation capacity must exit nonzero with one line
# on stderr and no traceback.
# Each pass ends with a `time:` line, its wall time and peak RSS, which are
# printed for reading and gate nothing.
# It runs the package from the checkout it lives in; no install is needed.
set -euo pipefail

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
traceforge() { python3 -m traceforge.cli "$@"; }

# sha256 of the cold pass's store: of one "name sha256" line per file, by name
COLD_MANIFEST=8ab64f678ac8278f92970260245dc6cff0582185c7b3635e725f4d9c3a4c4720

# run a command, then print its wall time and the peak RSS of its process
timed() {
    python3 -c '
import resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.call(sys.argv[1:])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"time: wall {wall:.2f} s, peak RSS {rss:.0f} MB", flush=True)
sys.exit(code)' "$@"
}

# every temporary file and dir of the run lives in TMP
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
CACHE="${TRACEFORGE_CACHE_DIR:-$TMP/cache}"
if [[ -d "$CACHE" && -n "$(ls -A "$CACHE")" ]]; then
    echo "FAIL: the cache dir $CACHE is not empty, so the first pass would not be cold" >&2
    exit 1
fi

# what a process imports after the interpreter's site hooks, from its
# `-X importtime` lines
imported() { awk 'past; /\| site$/ { past = 1 }' "$@"; }

echo "== pass 1 (cold cache: $CACHE) =="
if ! out="$(timed python3 -X importtime -m traceforge.cli --cache-dir "$CACHE" \
        reproduce --format text 2>"$TMP/cold-imports")"; then
    grep -v '^import time:' "$TMP/cold-imports" >&2 || true
    echo "FAIL: the cold pass exited nonzero" >&2
    exit 1
fi
echo "$out"
# the store hashes with CPython's own SHA-256, so no OpenSSL is loaded
if imported "$TMP/cold-imports" | grep -Eq '\|[[:space:]]+_hashlib$'; then
    echo "FAIL: the cold pass imported _hashlib" >&2
    exit 1
fi

stats="$(grep '^stats:' <<<"$out" || true)"
if ! grep -Eq "(^| )mono_products=0( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass multiplied word traces (${stats:-no stats line})" >&2
    exit 1
fi
if ! grep -Eq "(^| )word_evals=73( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass did not evaluate each catalog word once (${stats:-no stats line})" >&2
    exit 1
fi
if ! grep -Eq "(^| )gen_products=932( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass did not make the 932 generator-monomial products (${stats:-no stats line})" >&2
    exit 1
fi
# answers only: a word trace written through to the store adds a write
if ! grep -Eq "(^| )cache_writes=28( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass did not store exactly its 28 answers (${stats:-no stats line})" >&2
    exit 1
fi
# one file per cache entry: no checksum sidecars, no leftover temporaries
writes="$(grep -Eo '(^| )cache_writes=[0-9]+' <<<"$stats" | grep -Eo '[0-9]+$' || true)"
files="$(find "$CACHE" -mindepth 1 -maxdepth 1 | wc -l)"
strays="$(find "$CACHE" -mindepth 1 -maxdepth 1 \( -name '*.sha256' -o -name '.tmp-*' \) | wc -l)"
if [[ -z "$writes" || "$files" -ne "$writes" || "$strays" -ne 0 ]]; then
    echo "FAIL: the cold pass left $files files ($strays sidecars or temporaries) for ${writes:-no} cache writes" >&2
    exit 1
fi
echo "cold pass left one file per cache write: $files"
# the stored bytes: one sha256 over the "name sha256" lines of the files, by name
manifest="$(python3 -c '
import hashlib, os, sys
lines = []
for name in sorted(os.listdir(sys.argv[1])):
    with open(os.path.join(sys.argv[1], name), "rb") as f:
        lines.append(f"{name} {hashlib.sha256(f.read()).hexdigest()}\n")
print(hashlib.sha256("".join(lines).encode()).hexdigest())' "$CACHE")"
if [[ "$manifest" != "$COLD_MANIFEST" ]]; then
    echo "FAIL: the cold pass stored other bytes (manifest $manifest, want $COLD_MANIFEST)" >&2
    exit 1
fi
echo "cold pass stored the pinned bytes: manifest $manifest"
# the peak resident set of the cold pass, in MB
rss="$(grep -Eo '(^| )peak_rss_mb=[0-9.]+' <<<"$stats" | grep -Eo '[0-9.]+$' || true)"
if [[ -z "$rss" ]] || ! awk -v r="$rss" 'BEGIN { exit !(r <= 64) }'; then
    echo "FAIL: the cold pass peaked above 64 MB (${stats:-no stats line})" >&2
    exit 1
fi
echo "cold pass peaked at $rss MB"

echo
echo "== pass 2 (warm cache) =="
out="$(timed python3 -m traceforge.cli --cache-dir "$CACHE" reproduce --format text)"
echo "$out"

stats="$(grep '^stats:' <<<"$out" || true)"
for counter in word_evals mono_products gen_products spaces_solved \
        cache_misses cache_corrupt cache_writes; do
    if ! grep -Eq "(^| )${counter}=0( |$)" <<<"$stats"; then
        echo "FAIL: the warm pass did fresh work (${stats:-no stats line})" >&2
        exit 1
    fi
done
if ! grep -Eq "(^| )spaces_loaded=7( |$)" <<<"$stats"; then
    echo "FAIL: the warm pass did not read each of the 7 relation spaces once (${stats:-no stats line})" >&2
    exit 1
fi
echo "warm pass did no fresh work: $stats"

# a stored relation space is read without its highest weight basis
if ! probe="$(python3 -c '
import sys
from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.relfinder import LAMBDAS_BY_DEGREE, leading_analysis, new_relations, relation_space

cache = genmat.EvalCache(CacheStore(sys.argv[1]))
new_relations(14, cache=cache)
leading_analysis([relation_space(lam, cache=cache) for lam in LAMBDAS_BY_DEGREE[14]])
stats, store = cache.stats, cache.store.stats
counts = {"bases": len(cache._bases), "word_evals": stats.word_evals,
          "mono_products": stats.mono_products, "gen_products": stats.gen_products,
          "cache_misses": store.misses, "cache_writes": store.writes}
print(" ".join(f"{k}={v}" for k, v in counts.items()))
sys.exit(any(counts.values()))' "$CACHE")"; then
    echo "FAIL: a warm degree-14 read solved a basis or did fresh work (${probe:-no counts})" >&2
    exit 1
fi
echo "a warm new_relations(14) and degree-14 leading analysis solved no basis: $probe"

# a bundled file in the relation space the cache holds is zero by linearity
if ! probe="$(python3 -c '
import sys
from importlib import resources
from traceforge import genmat
from traceforge.cache import CacheStore
from traceforge.cli import BUNDLED_FILES
from traceforge.glcat import Partition
from traceforge.phiparse import parse_phi
from traceforge.relfinder import relation_space, verify_zero_abs

cache = genmat.EvalCache(CacheStore(sys.argv[1]))
nonzero = 0
for name, lam in BUNDLED_FILES:
    relation_space(Partition(*lam), cache=cache)
    text = resources.files("traceforge").joinpath("data", name).read_text()
    nonzero += not verify_zero_abs(parse_phi(text), cache).zero
stats, store = cache.stats, cache.store.stats
counts = {"nonzero_files": nonzero, "word_evals": stats.word_evals,
          "mono_products": stats.mono_products, "gen_products": stats.gen_products,
          "cache_misses": store.misses, "cache_writes": store.writes}
print(" ".join(f"{k}={v}" for k, v in counts.items()))
sys.exit(any(counts.values()))' "$CACHE")"; then
    echo "FAIL: a bundled file after its stored relation space was not zero with no fresh work (${probe:-no counts})" >&2
    exit 1
fi
echo "the bundled files after their stored relation spaces are zero with no fresh work: $probe"

# warm commands that build no array must not import numpy, nor dataclasses
# or the inspect module it imports, nor _hashlib
numpy_free() {
    local imports
    imports="$(python3 -X importtime -m traceforge.cli --cache-dir "$CACHE" "$@" 2>&1 >/dev/null)"
    if grep -Eq '\|[[:space:]]+numpy(\.|$)' <<<"$imports"; then
        echo "FAIL: a warm '$*' imported numpy" >&2
        exit 1
    fi
    # what the interpreter's site hooks import, before the package, does not count
    if imported <<<"$imports" | grep -Eq '\|[[:space:]]+(dataclasses|inspect|_hashlib)$'; then
        echo "FAIL: a warm '$*' imported dataclasses, inspect or _hashlib" >&2
        exit 1
    fi
}
numpy_free mult --lambda 7,5
numpy_free hwv --lambda 7,5
numpy_free relations --lambda 7,5
numpy_free relations --lambda 8,5
numpy_free verify --file "$SRC/traceforge/data/v75.phi"
numpy_free leading --degree 12
numpy_free new --degree 12
echo "warm mult, hwv, relations, verify, leading and new imported no numpy, dataclasses, inspect or _hashlib"

# a cold relation space in a process of its own: the relation vectors are
# proven by assembling them, and the answer is the one the first pass stored
COLD="$TMP/cold"
COLD75="$TMP/cold75"
BIG="$TMP/big.phi"
stored95="$(traceforge --cache-dir "$CACHE" --format json relations --lambda 9,5)"
if ! cold95="$(traceforge --cache-dir "$COLD" --format json relations --lambda 9,5)"; then
    echo "FAIL: a cold relations --lambda 9,5 exited nonzero" >&2
    exit 1
fi
if ! python3 -c '
import json, sys
stored, cold = (json.loads(arg) for arg in sys.argv[1:])
sys.exit(not (stored["from_cache"] and not cold["from_cache"]
              and cold["r"] == 2 and cold["zeta"] == stored["zeta"]))' "$stored95" "$cold95"; then
    echo "FAIL: a cold relations --lambda 9,5 did not find the zeta of the first pass" >&2
    exit 1
fi
echo "a cold relations --lambda 9,5 proved r=2 by assembly and found the zeta of the first pass"

# a second cold relation space, in a dir of its own, gives the answer the
# first pass stored
stored75="$(traceforge --cache-dir "$CACHE" --format json relations --lambda 7,5)"
if ! cold75="$(traceforge --cache-dir "$COLD75" --format json relations --lambda 7,5)"; then
    echo "FAIL: a cold relations --lambda 7,5 exited nonzero" >&2
    exit 1
fi
if ! python3 -c '
import json, sys
stored, cold = (json.loads(arg) for arg in sys.argv[1:])
sys.exit(not (stored["from_cache"] and not cold["from_cache"]
              and cold["r"] == 1 and cold["zeta"] == stored["zeta"]))' "$stored75" "$cold75"; then
    echo "FAIL: a cold relations --lambda 7,5 did not find the zeta of the first pass" >&2
    exit 1
fi
echo "a cold relations --lambda 7,5 proved r=1 by assembly and found the zeta of the first pass"

# beyond the packed capacity, evaluation fails with a one-line error
one_line_error() {
    local err
    if err="$(traceforge --cache-dir "$CACHE" "$@" 2>&1 >/dev/null)"; then
        echo "FAIL: '$*' exited 0 beyond the packed capacity" >&2
        exit 1
    fi
    if [[ -z "$err" || "$(wc -l <<<"$err")" -ne 1 ]] || grep -q Traceback <<<"$err"; then
        echo "FAIL: '$*' did not fail with one stderr line:" >&2
        echo "$err" >&2
        exit 1
    fi
}
printf 't4^2*t4^2*t4^2*t4^2\n' >"$BIG"  # bidegree (8,8)
one_line_error verify --file "$BIG"
one_line_error --degree-cap 16 relations --lambda 8,8
echo "verify and relations beyond the packed capacity fail with one stderr line"
