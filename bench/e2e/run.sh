#!/usr/bin/env bash
# Build the benchmark driver and privclusterd from source, then run the
# driver with the given arguments.  Run from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload serve-dense --seed 1 --trace 0
#   bash bench/e2e/run.sh                # all four workloads, untraced and traced
#   bash bench/e2e/run.sh --smoke        # all four at tiny size, ~15 s
#
# Build output goes to stderr; the driver's last stdout line is its JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/privcluster_cli.ml ] || [ ! -f bench/e2e/run.ml ]; then
  echo "run.sh: run from the root of a privcluster checkout" >&2
  exit 2
fi

dune build --root . ./bench/e2e/run.exe ./bin/privcluster_cli.exe >&2
exec ./_build/default/bench/e2e/run.exe "$@"
