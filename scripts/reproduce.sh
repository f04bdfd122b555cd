#!/usr/bin/env bash
# Recompute every frozen reference table twice against one cache directory.
# The first pass must multiply no word traces (highest weight bases are
# verified through generator monomials): the script fails unless it reports
# zero trace-monomial products.  The second pass must do no fresh work: the
# script fails unless it reports zero word evaluations, trace-monomial and
# generator-monomial products, and zero cache misses, corrupt entries and
# writes.  Then a warm `mult`, `hwv`, `relations` (for a degree-12 and a
# degree-13 weight), `verify`, `leading` and `new` must not import numpy: they
# build no array (hwv and verify read their stored verdicts), and the script
# fails if any one of them loads it.
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
