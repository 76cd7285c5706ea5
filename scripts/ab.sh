#!/usr/bin/env bash
# A/B the end-to-end benchmark (bench/e2e) between two revisions.
#
#   scripts/ab.sh REV_A REV_B --workload W --pairs K [--seed S] [--trace 0|1]
#
# REV_A is the base (the parent), REV_B the change.  Both are exported
# with `git archive` into a scratch directory and built there, so the
# working tree is never benchmarked by accident.  Pair i runs
# `bash bench/e2e/run.sh --workload W --seed S+i-1 --trace T` on both
# sides, A first in odd pairs and B first in even ones, so host drift
# hits both alike.  A run whose last stdout line is not `"correct": true`
# (or whose `failed` count is not 0) stops the script with exit 1.
#
# Per metric of the result line (setup_s with --trace 0; every per-layer
# metric as well with --trace 1) it prints both medians and Q1–Q3, how
# many pairs B wins and ties (the better direction comes from
# BENCHMARK.json; lower when a metric is not listed), the exact two-sided
# sign-test p over the untied pairs, and two verdicts:
#   claim       — at least 10 pairs, B wins at least 9 in 10 of them, the
#                 sign-test p is below 0.05, AND B's median is better than
#                 A's by more than A's Q1–Q3 spread (PERFORMANCE.md §4); a
#                 refused claim is followed by every condition it missed;
#   regression  — for an end-to-end metric with a bound, B's median is
#                 worse than A's by more than that bound.
# Exit status: 0 when every run was correct (whatever the verdicts), 1 on
# an incorrect or failed run, 2 on a usage or build error.
#
# AB_DIR=DIR keeps the copies and every result line in DIR (default: a
# fresh temporary directory, removed on exit).  Run from the repository
# root; uses git, dune, jq and awk.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh REV_A REV_B --workload W --pairs K [--seed S] [--trace 0|1]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1
rev_b=$2
shift 2
workload=
pairs=
seed=1
trace=0
while [ $# -gt 0 ]; do
  case $1 in
    --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --trace) [ $# -ge 2 ] || usage; trace=$2; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage
case $pairs in '' | *[!0-9]* | 0) echo "ab.sh: --pairs wants a positive integer" >&2; exit 2 ;; esac
case $seed in '' | *[!0-9]*) echo "ab.sh: --seed wants a non-negative integer" >&2; exit 2 ;; esac
case $trace in 0 | 1) ;; *) echo "ab.sh: --trace wants 0 or 1" >&2; exit 2 ;; esac
if [ ! -f BENCHMARK.json ] || [ ! -f bench/e2e/run.sh ]; then
  echo "ab.sh: run from the repository root" >&2
  exit 2
fi
sha_a=$(git rev-parse --verify --quiet "$rev_a^{commit}") || { echo "ab.sh: unknown revision $rev_a" >&2; exit 2; }
sha_b=$(git rev-parse --verify --quiet "$rev_b^{commit}") || { echo "ab.sh: unknown revision $rev_b" >&2; exit 2; }

if [ -n "${AB_DIR:-}" ]; then
  work=$AB_DIR
  mkdir -p "$work"
else
  work=$(mktemp -d "${TMPDIR:-/tmp}/privcluster-ab.XXXXXX")
  trap 'rm -rf "$work"' EXIT
fi
bench=$(pwd)/BENCHMARK.json

for side in a b; do
  if [ "$side" = a ]; then sha=$sha_a; else sha=$sha_b; fi
  rm -rf "${work:?}/$side"
  mkdir -p "$work/$side"
  git archive "$sha" | tar -x -C "$work/$side"
  echo "ab.sh: building $side ($sha)" >&2
  (cd "$work/$side" && dune build --root . ./bench/e2e/run.exe ./bin/privcluster_cli.exe >&2) ||
    { echo "ab.sh: build of $side failed" >&2; exit 2; }
done

cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
echo "A        $rev_a ($sha_a)"
echo "B        $rev_b ($sha_b)"
echo "workload $workload, $pairs pairs, seeds $seed-$((seed + pairs - 1)), --trace $trace"
echo "profile  ${DUNE_PROFILE:-dev} (dune default)"
echo "nproc    $(nproc)"
echo "cpu      ${cpu:-unknown}"

# Run one side on one seed; keep its result line.
run_side() {
  local side=$1 s=$2 line
  line=$(cd "$work/$side" && bash bench/e2e/run.sh --workload "$workload" --seed "$s" \
    --trace "$trace" 2>/dev/null | tail -n 1) || true
  if [ "$(printf '%s' "$line" | jq -r '(.correct == true) and (.failed == 0)' 2>/dev/null)" != true ]; then
    echo "ab.sh: side $side, seed $s: run not correct: ${line:-<no output>}" >&2
    exit 1
  fi
  printf '%s\n' "$line" > "$work/$side-$s.json"
}

for i in $(seq 1 "$pairs"); do
  s=$((seed + i - 1))
  if [ $((i % 2)) = 1 ]; then order="a b"; else order="b a"; fi
  for side in $order; do run_side "$side" "$s"; done
  echo "ab.sh: pair $i/$pairs (seed $s) done" >&2
done

# One line per metric and pair: name, better, bound, A value, B value.
for i in $(seq 1 "$pairs"); do
  s=$((seed + i - 1))
  jq -r --slurpfile b "$bench" --slurpfile other "$work/b-$s.json" '
    ($b[0].end_to_end + $b[0].per_layer) as $cat
    | .metrics | to_entries[]
    | .key as $k
    | ($cat | map(select(.name == $k)) | first) as $m
    | ($other[0].metrics[$k].value) as $vb
    | select($vb != null)
    | [$k, ($m.better // "lower"), ($m.bound // "-"), .value.value, $vb] | @tsv' "$work/a-$s.json"
done | awk -F'\t' '
  function q(arr, n, p,   pos, i, f) {
    pos = p * (n - 1); i = int(pos)
    if (i >= n - 1) return arr[n]
    f = pos - i
    return arr[i + 1] * (1 - f) + arr[i + 2] * f
  }
  function sort(arr, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = arr[i]; for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]; arr[j + 1] = t }
  }
  # Exact two-sided sign test: P(X <= min(w, l)) doubled, X ~ Bin(w + l, 1/2).
  function sign_p(w, l,   n, k, i, c, tail) {
    n = w + l; if (n == 0) return 1
    k = (w < l) ? w : l
    c = 1; tail = 0
    for (i = 0; i <= k; i++) { tail += c; c = c * (n - i) / (i + 1) }
    tail = 2 * tail / (2 ^ n)
    return (tail > 1) ? 1 : tail
  }
  {
    k = $1
    if (!(k in seen)) { seen[k] = 1; order[++nk] = k; better[k] = $2; bound[k] = $3 }
    c = ++cnt[k]; A[k, c] = $4; B[k, c] = $5
    d = (better[k] == "higher") ? $5 - $4 : $4 - $5
    if (d > 0) wins[k]++; else if (d == 0) ties[k]++; else losses[k]++
  }
  END {
    printf "\n%-34s %-28s %-28s %7s %4s %8s  %-16s %s\n", "metric", "A Q1 / median / Q3", "B Q1 / median / Q3", "B wins", "ties", "sign p", "regression", "claim"
    for (j = 1; j <= nk; j++) {
      k = order[j]; n = cnt[k]
      for (i = 1; i <= n; i++) { a[i] = A[k, i]; b[i] = B[k, i] }
      sort(a, n); sort(b, n)
      a1 = q(a, n, .25); am = q(a, n, .5); a3 = q(a, n, .75)
      b1 = q(b, n, .25); bm = q(b, n, .5); b3 = q(b, n, .75)
      gap = (better[k] == "higher") ? bm - am : am - bm
      p = sign_p(wins[k] + 0, losses[k] + 0)
      why = ""
      if (n < 10) why = why sprintf("; %d pairs < 10", n)
      if (10 * wins[k] < 9 * n) why = why sprintf("; %d/%d wins < 9 in 10", wins[k], n)
      if (p >= 0.05) why = why sprintf("; sign p %.3g >= 0.05", p)
      if (gap <= a3 - a1) why = why "; median gap within A\047s Q1-Q3"
      claim = (why == "") ? "yes" : "no (" substr(why, 3) ")"
      if (bound[k] == "-") reg = "-"
      else {
        worse = (better[k] == "higher") ? (am - bm) : (bm - am)
        reg = (am != 0 && worse / am > bound[k]) ? sprintf("FAIL (> %g%%)", 100 * bound[k]) : sprintf("ok (<= %g%%)", 100 * bound[k])
      }
      printf "%-34s %-28s %-28s %4d/%-2d %4d %8.3g  %-16s %s\n", k, sprintf("%.4g / %.4g / %.4g", a1, am, a3), sprintf("%.4g / %.4g / %.4g", b1, bm, b3), wins[k] + 0, n, ties[k] + 0, p, reg, claim
    }
  }'
