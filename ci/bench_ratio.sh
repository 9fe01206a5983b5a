#!/usr/bin/env bash
# Ratio guard: fails when the fastest sample of one benchmark exceeds the
# fastest sample of another by more than a given factor, both read from
# the same BENCH_*.json artifact (so machine speed cancels out). The
# minimum (`min_ns`) is the sample least disturbed by other load on the
# machine; medians of rows that run minutes apart move with that load.
#
#   bash ci/bench_ratio.sh BENCH_sym.json \
#     sym/unfair-liveness/counting/100000 sym/unfair-liveness/counting/10000 25
#
# Two uses: a scaling guard (with a 10x larger input, a linear-time
# benchmark reads about 10x and a quadratic one about 100x, so the bound
# sits between the two), and a cost guard between two benchmarks at the
# same size (a derived structure's build against the build it starts
# from).
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <current.json> <numerator group/id> <denominator group/id> <max ratio>" >&2
  exit 2
fi
current=$1
numerator=$2
denominator=$3
max_ratio=$4

min_ns() {
  awk -v want="$1" '
    /"group"/ {
      line = $0
      g = line; sub(/.*"group": "/, "", g); sub(/".*/, "", g)
      i = line; sub(/.*"id": "/, "", i); sub(/".*/, "", i)
      m = line; sub(/.*"min_ns": /, "", m); sub(/[,}].*/, "", m)
      if (g "/" i == want) print m
    }
  ' "$current"
}

num_ns=$(min_ns "$numerator")
den_ns=$(min_ns "$denominator")
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
  echo "bench-ratio: FAILED $numerator / $denominator = ${ratio}x > ${max_ratio}x"
  exit 1
fi
echo "bench-ratio: ok $numerator / $denominator = ${ratio}x (bound ${max_ratio}x)"
