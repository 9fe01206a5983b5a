#!/usr/bin/env bash
# Records a benchmark baseline from two or more full runs, so one run
# that sat in a slow state cannot loosen every gate it feeds.
#
#   BENCH_JSON="$PWD/run1.json" cargo bench --bench wire
#   BENCH_JSON="$PWD/run2.json" cargo bench --bench wire
#   bash ci/bench_record.sh ci/baselines/BENCH_wire.json run1.json run2.json
#
# The output is run 1's records with each row's fastest sample
# (`min_ns`, the figure `ci/bench_check.sh` gates on) replaced by the
# fastest sample of that row across all runs. A row whose `min_ns`
# differs between runs by more than 1.5x, or that is missing from a
# run, is printed and the script exits non-zero without writing: runs
# that disagree that much say more about the machine than about the
# code, so record again.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 <out.json> <run1.json> <run2.json> [run.json ...]" >&2
  exit 2
fi
out=$1
shift
spread=1.5

for f in "$@"; do
  if [ ! -f "$f" ]; then
    echo "bench-record: missing $f" >&2
    exit 2
  fi
done

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Pass 1 (every run): each row's fastest and slowest min_ns, and in how
# many runs it appears. Pass 2 (run 1 again): rewrite min_ns.
if ! awk -v runs=$# -v spread="$spread" '
  function key(line,   g, i) {
    g = line; sub(/.*"group": "/, "", g); sub(/".*/, "", g)
    i = line; sub(/.*"id": "/, "", i); sub(/".*/, "", i)
    return g "/" i
  }
  function min_ns(line,   m) {
    m = line; sub(/.*"min_ns": /, "", m); sub(/[,}].*/, "", m)
    return m + 0
  }
  FNR == 1 { file++ }
  file <= runs && /"group"/ {
    k = key($0); m = min_ns($0)
    if (!(k in seen) || m < lo[k]) lo[k] = m
    if (!(k in seen) || m > hi[k]) hi[k] = m
    seen[k]++
    next
  }
  file > runs && /"group"/ {
    k = key($0)
    if (seen[k] != runs) {
      printf "bench-record: MISSING   %s (in %d of %d runs)\n", k, seen[k], runs > "/dev/stderr"
      bad = 1
    } else if (lo[k] > 0 && hi[k] / lo[k] > spread) {
      printf "bench-record: SPREAD    %s: min_ns %d..%d (%.2fx > %sx)\n", k, lo[k], hi[k], hi[k] / lo[k], spread > "/dev/stderr"
      bad = 1
    }
    sub(/"min_ns": [0-9]+/, "\"min_ns\": " lo[k])
  }
  file > runs { print }
  END { exit bad }
' "$@" "$1" >"$tmp"; then
  echo "bench-record: FAILED (runs disagree; nothing written)" >&2
  exit 1
fi
cp "$tmp" "$out"
echo "bench-record: wrote $out from $# runs (spread <= ${spread}x)"
