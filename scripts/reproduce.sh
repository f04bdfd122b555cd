#!/usr/bin/env bash
# Recompute every frozen reference table twice against one cache directory.
# The first pass must multiply no word traces (highest weight bases are
# verified on the columns of the coefficient matrix that the relation spaces
# solve, summed from generator-monomial products) and must evaluate each of
# the 73 catalog words exactly once: the script fails unless it reports zero
# trace-monomial products and 73 word evaluations.  It must also compute each
# needed generator-monomial product exactly once, however many threads share
# them: the script fails unless it reports 2044 of them.  It must leave one
# file per cache write: the script fails unless the cache dir then holds
# exactly as many files as the pass reports cache writes, none of them a
# checksum sidecar or a leftover temporary.  It must stay within 120 MB: the
# script fails if the `peak_rss_mb` of its `stats:` line exceeds 120, the
# memory the degree-14 weights are meant to fit in.  The second pass must do
# no fresh work: the script fails unless it reports zero word evaluations,
# trace-monomial and generator-monomial products, and zero cache misses,
# corrupt entries and writes.  Then a warm `mult`, `hwv`, `relations` (for a degree-12 and a
# degree-13 weight), `verify`, `leading` and `new` must not import numpy: they
# build no array (hwv and verify read their stored verdicts), and the script
# fails if any one of them loads it.  Nor may they import `dataclasses` or
# `inspect` (a dataclass compiles generated methods at every import, which
# costs every process start-up time): the script fails if any one of them
# loads either; what the interpreter's site hooks import does not count.
# Last, a `verify` of a candidate and an `hwv --degree-cap 16 --lambda 8,8`
# beyond the packed evaluation capacity must exit nonzero with one line on
# stderr and no traceback.
# Each pass ends with a `time:` line, its wall time and peak RSS, which are
# printed for reading and gate nothing.
# It runs the package from the checkout it lives in; no install is needed.
set -euo pipefail

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
traceforge() { python3 -m traceforge.cli "$@"; }

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

CACHE="${TRACEFORGE_CACHE_DIR:-./.tracecache}"

echo "== pass 1 (cold cache: $CACHE) =="
out="$(timed python3 -m traceforge.cli --cache-dir "$CACHE" reproduce --paper-tables --format text)"
echo "$out"

stats="$(grep '^stats:' <<<"$out" || true)"
if ! grep -Eq "(^| )mono_products=0( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass multiplied word traces (${stats:-no stats line})" >&2
    exit 1
fi
if ! grep -Eq "(^| )word_evals=73( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass did not evaluate each catalog word once (${stats:-no stats line})" >&2
    exit 1
fi
if ! grep -Eq "(^| )gen_products=2044( |$)" <<<"$stats"; then
    echo "FAIL: the cold pass did not make the 2044 generator-monomial products (${stats:-no stats line})" >&2
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
# the peak resident set of the cold pass, in MB
rss="$(grep -Eo '(^| )peak_rss_mb=[0-9.]+' <<<"$stats" | grep -Eo '[0-9.]+$' || true)"
if [[ -z "$rss" ]] || ! awk -v r="$rss" 'BEGIN { exit !(r <= 120) }'; then
    echo "FAIL: the cold pass peaked above 120 MB (${stats:-no stats line})" >&2
    exit 1
fi
echo "cold pass peaked at $rss MB"

echo
echo "== pass 2 (warm cache) =="
out="$(timed python3 -m traceforge.cli --cache-dir "$CACHE" reproduce --paper-tables --format text)"
echo "$out"

stats="$(grep '^stats:' <<<"$out" || true)"
for counter in word_evals mono_products gen_products \
        cache_misses cache_corrupt cache_writes; do
    if ! grep -Eq "(^| )${counter}=0( |$)" <<<"$stats"; then
        echo "FAIL: the warm pass did fresh work (${stats:-no stats line})" >&2
        exit 1
    fi
done
echo "warm pass did no fresh work: $stats"

# warm commands that build no array must not import numpy, nor dataclasses
# or the inspect module it imports
numpy_free() {
    local imports
    imports="$(python3 -X importtime -m traceforge.cli --cache-dir "$CACHE" "$@" 2>&1 >/dev/null)"
    if grep -Eq '\|[[:space:]]+numpy(\.|$)' <<<"$imports"; then
        echo "FAIL: a warm '$*' imported numpy" >&2
        exit 1
    fi
    # what the interpreter's site hooks import, before the package, does not count
    if awk 'past; /\| site$/ { past = 1 }' <<<"$imports" |
            grep -Eq '\|[[:space:]]+(dataclasses|inspect)$'; then
        echo "FAIL: a warm '$*' imported dataclasses or inspect" >&2
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
echo "warm mult, hwv, relations, verify, leading and new imported no numpy, dataclasses or inspect"

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
BIG="$(mktemp)"
trap 'rm -f "$BIG"' EXIT
printf 't4^2*t4^2*t4^2*t4^2\n' >"$BIG"  # bidegree (8,8)
one_line_error verify --file "$BIG"
one_line_error --degree-cap 16 hwv --lambda 8,8
echo "verify and hwv beyond the packed capacity fail with one stderr line"
