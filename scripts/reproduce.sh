#!/usr/bin/env bash
# Recompute every frozen reference table twice against one cache directory.
# The second pass must do no fresh matrix work: the script fails unless it
# reports word_evals=0 and mono_products=0.
set -euo pipefail

CACHE="${TRACEFORGE_CACHE_DIR:-./.tracecache}"

echo "== pass 1 (cold cache: $CACHE) =="
traceforge --cache-dir "$CACHE" reproduce --paper-tables --format text

echo
echo "== pass 2 (warm cache) =="
out="$(traceforge --cache-dir "$CACHE" reproduce --paper-tables --format text)"
echo "$out"

stats="$(grep '^stats:' <<<"$out" || true)"
for counter in word_evals mono_products; do
    if ! grep -Eq "(^| )${counter}=0( |$)" <<<"$stats"; then
        echo "FAIL: the warm pass did fresh work (${stats:-no stats line})" >&2
        exit 1
    fi
done
echo "warm pass did no fresh work: $stats"
