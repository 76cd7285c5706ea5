#!/usr/bin/env bash
# Run the whole suite twice — the second round in reverse workload order —
# and compare every end-to-end metric of the two rounds against its bound
# in BENCHMARK.json.  A round runs each workload on five seeds (SEED to
# SEED+4) and a metric is compared by its medians: one run of a set-up
# time on this kind of host varies by more than any bound.  Exits non-zero
# if any metric differs by more than its bound or any run failed.  Takes
# about a quarter of an hour.  Run from the repository root:
#
#   bash bench/e2e/repeat.sh [SEED]
set -u

if [ ! -f BENCHMARK.json ] || [ ! -f bench/e2e/run.sh ]; then
  echo "repeat.sh: run from the repository root" >&2
  exit 2
fi

seed=${1:-1}
out=.bench_e2e/repeat-$$
mkdir -p "$out/1" "$out/2"
trap 'rm -rf "$out"; rmdir .bench_e2e 2>/dev/null || true' EXIT

round() {
  local dir=$1
  shift
  for w in "$@"; do
    for k in 0 1 2 3 4; do
      echo "repeat.sh: round $(basename "$dir"), $w, seed $((seed + k))" >&2
      bash bench/e2e/run.sh --workload "$w" --seed $((seed + k)) --trace 0 | tail -n 1 \
        > "$dir/$w-$k.json"
    done
  done
}

round "$out/1" serve-dense serve-cached churn-window batch-tree
round "$out/2" batch-tree churn-window serve-cached serve-dense
./_build/default/bench/e2e/run.exe --compare "$out/1" "$out/2"
