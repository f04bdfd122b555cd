#!/usr/bin/env bash
# Recompute every frozen reference table twice against one cache directory.
# The first pass must multiply no word traces (highest weight bases are
# verified on the columns of the coefficient matrix that the relation spaces
# solve, summed from generator-monomial products) and must evaluate each of
# the 73 catalog words exactly once: the script fails unless it reports zero
# trace-monomial products and 73 word evaluations.  It must also compute each
# needed generator-monomial product exactly once, however many threads share
# them: the script fails unless it reports 2044 of them.  The second pass must do
# no fresh work: the script fails unless it reports zero word evaluations,
# trace-monomial and generator-monomial products, and zero cache misses,
# corrupt entries and writes.  Then a warm `mult`, `hwv`, `relations` (for a degree-12 and a
# degree-13 weight), `verify`, `leading` and `new` must not import numpy: they
# build no array (hwv and verify read their stored verdicts), and the script
# fails if any one of them loads it.  Last, a `verify` of a candidate and an
# `hwv --degree-cap 16 --lambda 8,8` beyond the packed evaluation capacity must
# exit nonzero with one line on stderr and no traceback.
# It runs the package from the checkout it lives in; no install is needed.
set -euo pipefail

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
traceforge() { python3 -m traceforge.cli "$@"; }

CACHE="${TRACEFORGE_CACHE_DIR:-./.tracecache}"

echo "== pass 1 (cold cache: $CACHE) =="
out="$(traceforge --cache-dir "$CACHE" reproduce --paper-tables --format text)"
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

echo
echo "== pass 2 (warm cache) =="
out="$(traceforge --cache-dir "$CACHE" reproduce --paper-tables --format text)"
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

# warm commands that build no array must not import numpy
numpy_free() {
    local imports
    imports="$(python3 -X importtime -m traceforge.cli --cache-dir "$CACHE" "$@" 2>&1 >/dev/null)"
    if grep -Eq '\|[[:space:]]+numpy(\.|$)' <<<"$imports"; then
        echo "FAIL: a warm '$*' imported numpy" >&2
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
echo "warm mult, hwv, relations, verify, leading and new imported no numpy"

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
