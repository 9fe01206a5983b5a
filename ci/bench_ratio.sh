#!/usr/bin/env bash
# Superlinearity guard: fails when the median of one benchmark exceeds
# the median of another by more than a given factor, both read from the
# same BENCH_*.json artifact (so machine speed cancels out).
#
#   bash ci/bench_ratio.sh BENCH_sym.json \
#     sym/unfair-liveness/counting/100000 sym/unfair-liveness/counting/10000 25
#
# With a 10x larger input, a linear-time benchmark reads about 10x and a
# quadratic one about 100x; the bound sits between the two.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <current.json> <numerator group/id> <denominator group/id> <max ratio>" >&2
  exit 2
fi
current=$1
numerator=$2
denominator=$3
max_ratio=$4

median() {
  awk -v want="$1" '
    /"group"/ {
      line = $0
      g = line; sub(/.*"group": "/, "", g); sub(/".*/, "", g)
      i = line; sub(/.*"id": "/, "", i); sub(/".*/, "", i)
      m = line; sub(/.*"median_ns": /, "", m); sub(/[,}].*/, "", m)
      if (g "/" i == want) print m
    }
  ' "$current"
}

num_ns=$(median "$numerator")
den_ns=$(median "$denominator")
for pair in "$numerator=$num_ns" "$denominator=$den_ns"; do
  if [ -z "${pair#*=}" ]; then
    echo "bench-ratio: ${pair%=*} missing from $current" >&2
    exit 2
  fi
done

verdict=$(awk -v n="$num_ns" -v d="$den_ns" -v t="$max_ratio" \
  'BEGIN { r = (d > 0) ? n / d : 0; printf "%.1f %s", r, (d > 0 && r <= t) ? "ok" : "FAIL" }')
ratio=${verdict% *}
if [ "${verdict#* }" = "FAIL" ]; then
  echo "bench-ratio: FAILED $numerator / $denominator = ${ratio}x > ${max_ratio}x (superlinear)"
  exit 1
fi
echo "bench-ratio: ok $numerator / $denominator = ${ratio}x (bound ${max_ratio}x)"
