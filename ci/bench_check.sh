#!/usr/bin/env bash
# Benchmark regression gate: compares a fresh BENCH_*.json artifact
# (written by the criterion shim when BENCH_JSON is set) against a
# committed baseline and fails on large slowdowns.
#
#   bash ci/bench_check.sh ci/baselines/BENCH_sym.json BENCH_sym.json
#
# A benchmark fails when its fastest sample (`min_ns`) exceeds the
# baseline's fastest sample by more than the tolerance factor (default
# 2.0, override with BENCH_TOLERANCE). The minimum is the sample least
# disturbed by other load on the machine; a median of a millisecond row
# moves past 2x with that load alone. The factor is deliberately loose:
# baseline and CI run on different machines, and shared runners are
# noisy — this gate catches algorithmic regressions (an accidental
# O(n^2), a lock on the hot path), not single-digit-percent drift. Benchmarks present on only one side are
# reported but never fatal, so adding or retiring a benchmark does not
# require touching the baseline in the same commit.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <baseline.json> <current.json>" >&2
  exit 2
fi
baseline=$1
current=$2
tolerance=${BENCH_TOLERANCE:-2.0}

for f in "$baseline" "$current"; do
  if [ ! -f "$f" ]; then
    echo "bench-check: missing $f" >&2
    exit 2
  fi
done

# The shim writes one record per line: extract "group/id min_ns"
# pairs. awk keeps this dependency-free on any runner.
extract() {
  awk '
    /"group"/ {
      line = $0
      g = line; sub(/.*"group": "/, "", g); sub(/".*/, "", g)
      i = line; sub(/.*"id": "/, "", i); sub(/".*/, "", i)
      m = line; sub(/.*"min_ns": /, "", m); sub(/[,}].*/, "", m)
      print g "/" i " " m
    }
  ' "$1"
}

extract "$baseline" | sort >/tmp/bench_baseline.$$
extract "$current" | sort >/tmp/bench_current.$$
trap 'rm -f /tmp/bench_baseline.$$ /tmp/bench_current.$$' EXIT

fail=0
while read -r name current_ns; do
  baseline_ns=$(awk -v n="$name" '$1 == n { print $2 }' /tmp/bench_baseline.$$)
  if [ -z "$baseline_ns" ]; then
    echo "bench-check: NEW       $name (${current_ns}ns, no baseline)"
    continue
  fi
  verdict=$(awk -v c="$current_ns" -v b="$baseline_ns" -v t="$tolerance" \
    'BEGIN { ratio = (b > 0) ? c / b : 1; printf "%.2f %s", ratio, (ratio > t) ? "FAIL" : "ok" }')
  ratio=${verdict% *}
  status=${verdict#* }
  if [ "$status" = "FAIL" ]; then
    echo "bench-check: REGRESSED $name: ${current_ns}ns vs baseline ${baseline_ns}ns (${ratio}x > ${tolerance}x)"
    fail=1
  else
    echo "bench-check: ok        $name (${ratio}x of baseline)"
  fi
done </tmp/bench_current.$$

while read -r name _; do
  if ! awk -v n="$name" '$1 == n { found = 1 } END { exit !found }' /tmp/bench_current.$$; then
    echo "bench-check: MISSING   $name (in baseline, not in current run)"
  fi
done </tmp/bench_baseline.$$

if [ "$fail" -ne 0 ]; then
  echo "bench-check: FAILED (regressions above)"
  exit 1
fi
echo "bench-check: OK (tolerance ${tolerance}x)"
