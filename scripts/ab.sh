#!/usr/bin/env bash
# Compares this checkout ("change") with a base revision ("base") on the
# served-traffic benchmark, in paired runs on one machine:
#
#   scripts/ab.sh <base-rev>
#
# The base's committed files are exported into a temporary directory,
# removed on exit. For each workload, PAIRS pairs of `bash bench/run.sh
# --workload W` runs alternate the two sides, and which side goes first
# flips from pair to pair. For every end-to-end metric of BENCHMARK.json
# it prints a markdown table: both medians, the change/base ratio, each
# side's interquartile range over its own median, the pairs the change
# won, the exact two-sided sign-test p over the pairs that differ, and
# whether the ratio is worse or better than the metric's bound.
#
# Environment: PAIRS (default 5, at least 5), WORKLOADS (default every
# workload of BENCHMARK.json), BENCH_ARGS (more bench/run.sh arguments,
# e.g. "--seconds 3" for a smoke).
set -euo pipefail
base_rev=${1:?usage: scripts/ab.sh <base-rev>}
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${PAIRS:-5}
if ((pairs < 5)); then echo "ab.sh: PAIRS must be at least 5" >&2; exit 2; fi
workloads=${WORKLOADS:-$(jq -r '.workloads[].name' "$root/BENCHMARK.json")}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base_rev^{commit}")" | tar -x -C "$tmp/base"
declare -A dir=([change]="$root" [base]="$tmp/base")

# run SIDE WORKLOAD PAIR appends "workload metric side pair value" lines.
run() {
  local out
  echo "ab.sh: $2 pair $3/$pairs: $1" >&2
  # shellcheck disable=SC2086 # BENCH_ARGS is split on purpose
  if ! out=$(bash "${dir[$1]}/bench/run.sh" --workload "$2" ${BENCH_ARGS:-} 2>&1); then
    echo "$out" | tail -20 >&2
    echo "ab.sh: the $1 side failed on $2 (pair $3)" >&2
    exit 1
  fi
  echo "$out" | grep '^{' | tail -1 | jq -r --arg w "$2" --arg s "$1" --arg p "$3" \
    '(.metrics | to_entries[] | "\($w) \(.key) \($s) \($p) \(.value.value)"),
     "\($w) failed_ops \($s) \($p) \(.failed)", "\($w) attempted_ops \($s) \($p) \(.attempted)"' >>"$tmp/runs"
}

for w in $workloads; do
  for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then run change "$w" "$p"; run base "$w" "$p"; else run base "$w" "$p"; run change "$w" "$p"; fi
  done
done

echo "$pairs alternating pairs per workload; base $(git -C "$root" rev-parse --short "$base_rev"), change $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD -- . || echo ' plus uncommitted edits')"
echo
jq -r '.end_to_end[] | "spec \(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" |
  cat - "$tmp/runs" | awk -v pairs="$pairs" '
  function sortn(a, n,   i, j, x) { for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x } }
  function q(a, n, f) { return a[int(f * (n - 1) + 0.5) + 1] }   # a sorted, f in [0,1]
  function stat(key,   i, n) { n = 0; for (i = 1; i <= pairs; i++) if ((key, i) in v) s[++n] = v[key, i]; sortn(s, n); med = q(s, n, 0.5); iqr = med ? (q(s, n, 0.75) - q(s, n, 0.25)) / med : 0; return n }
  function signp(k, n,   i, c, t, m) { m = k < n - k ? k : n - k; c = 1; t = 0; for (i = 0; i <= m; i++) { t += c; c = c * (n - i) / (i + 1) } t = 2 * t / 2 ^ n; return t > 1 ? 1 : t }
  $1 == "spec" { better[$2] = $3; bound[$2] = $4; order[++nm] = $2; next }
  { v[$1 SUBSEP $2 SUBSEP $3, $4] = $5; if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 } }
  END {
    print "| workload | metric | base median | change median | change/base | base IQR | change IQR | change won | sign p | vs bound |"
    print "|---|---|---|---|---|---|---|---|---|---|"
    for (i = 1; i <= nw; i++) {
      w = wl[i]
      for (j = 1; j <= nm; j++) {
        m = order[j]; bk = w SUBSEP m SUBSEP "base"; ck = w SUBSEP m SUBSEP "change"
        if (!stat(bk)) continue; bm = med; bi = iqr; stat(ck); cm = med; ci = iqr
        won = 0; n = 0
        for (p = 1; p <= pairs; p++) if (v[ck, p] != v[bk, p]) { n++; if ((v[ck, p] < v[bk, p]) == (better[m] == "lower")) won++ }
        r = bm ? cm / bm : 1; worse = better[m] == "lower" ? r - 1 : 1 - r
        flag = worse > bound[m] ? "WORSE" : (-worse > bound[m] ? "better" : "within")
        printf "| %s | %s | %.4g | %.4g | %.3f | %.1f %% | %.1f %% | %d/%d | %.3f | %s ±%g |\n", w, m, bm, cm, r, 100 * bi, 100 * ci, won, pairs, signp(won, n), flag, bound[m]
      }
    }
    print ""
    for (i = 1; i <= nw; i++) {
      w = wl[i]; line = w ":"
      for (side = 0; side < 2; side++) {
        sd = side ? "change" : "base"; f = a = 0
        for (p = 1; p <= pairs; p++) { f += v[w, "failed_ops", sd, p]; a += v[w, "attempted_ops", sd, p] }
        line = line sprintf(" %s %d of %d operations failed%s", sd, f, a, side ? "" : ",")
      }
      print line
    }
  }'
