#!/usr/bin/env bash
# Acceptance session for privclusterd's journaled budget ledger:
#
#   1. register a dataset and spend to near exhaustion,
#   2. kill -9 the daemon (no drain, no settling),
#   3. restart on the same WAL and re-register: the replayed ledger must
#      equal the pre-crash ledger and Obs.Attribution must reconcile,
#   4. an over-budget job must still be refused after recovery,
#   5. a standing query's first post-restart tick must run at the same
#      per-slice eps as its pre-crash tick,
#   6. a shed request (per-tenant in-flight cap) must charge nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${OUT_DIR:-daemon-demo}"
mkdir -p "$OUT_DIR"
rm -f "$OUT_DIR"/*

dune build bin/privcluster_cli.exe
CLI=_build/default/bin/privcluster_cli.exe
SOCK="$OUT_DIR/privclusterd.sock"
WAL="$OUT_DIR/privclusterd.wal"

serve() { # serve LOG TRACE
  "$CLI" serve --socket "$SOCK" --wal "$WAL" --tenant acme:s3cret:1 \
    --jobs 1 --trace "$2" >"$1" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 100); do
    grep -q "privclusterd listening" "$1" 2>/dev/null && break
    sleep 0.1
  done
  grep -q "privclusterd listening" "$1"
}

client() { "$CLI" client "$@" --socket "$SOCK" --tenant acme --token s3cret; }

spent_block() { sed -n '/"spent"/,/}/p' "$1"; }

tick_eps() { # tick_eps REPLY LABEL: the eps a standing-query tick ran at
  grep -A4 "\"id\": \"$2\"" "$1" | sed -n 's/.*"eps": \([^,]*\),*$/\1/p'
}

cat > "$OUT_DIR/jobs.txt" <<'EOF'
one_cluster t_fraction=0.45 eps=0.3 delta=1e-7 id=cluster
quantile    q=0.5 axis=0 eps=0.1 id=median
EOF

echo "== session 1: register and spend to near exhaustion =="
serve "$OUT_DIR/serve1.log" "$OUT_DIR/trace1.json"
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT

client register --dataset d1 --points 800 --axis 128 \
  --budget-eps 1 --budget-delta 1e-5 >/dev/null
# two batches at (0.3 + 0.1): 0.8 of the 1.0 ε budget
client run --dataset d1 --seed 1 "$OUT_DIR/jobs.txt" >/dev/null
client run --dataset d1 --seed 2 "$OUT_DIR/jobs.txt" >/dev/null
client ledger --dataset d1 > "$OUT_DIR/ledger_before.json"
spent_block "$OUT_DIR/ledger_before.json"
# a standing query whose total eps has no short decimal form: the WAL
# journals its registration line, and the restart re-arms it from there
client register --dataset d3 --points 800 --axis 128 \
  --budget-eps 1 --budget-delta 1e-5 >/dev/null
client standing --dataset d3 --id sq --eps 0.1234567 --periods 3 --seed 6 \
  > "$OUT_DIR/standing.json"
echo "standing tick sq#1 ran at eps $(tick_eps "$OUT_DIR/standing.json" 'sq#1')"

echo "== crash: kill -9, no drain =="
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
test -s "$WAL"

echo "== session 2: restart on the same WAL =="
# Job 95 of any batch stalls 5 s before it runs (a fault injected ahead
# of the solver, so it draws no noise and changes no answer).  Only the
# 96-job batch of the shed check below has an index 95; every other
# batch the restarted daemon runs holds at most two jobs.
PRIVCLUSTER_FAULTS=stall@95=5 serve "$OUT_DIR/serve2.log" "$OUT_DIR/trace2.json"

# re-registering replays the journal; the budget is pinned by the WAL
client register --dataset d1 --points 800 --axis 128 \
  --budget-eps 1 --budget-delta 1e-5 > "$OUT_DIR/reregister.json"
grep -q '"replayed": true' "$OUT_DIR/reregister.json"

client ledger --dataset d1 > "$OUT_DIR/ledger_after.json"
if [ "$(spent_block "$OUT_DIR/ledger_before.json")" != "$(spent_block "$OUT_DIR/ledger_after.json")" ]; then
  echo "FAIL: replayed spend differs from the pre-crash ledger" >&2
  exit 1
fi
echo "replayed ledger matches the pre-crash spend"

# the traced daemon attaches an Obs.Attribution reconciliation to the
# ledger reply: replayed charges must still reconcile span-by-span
grep -q '"ok": true' "$OUT_DIR/ledger_after.json"
echo "attribution reconciles after replay"

echo "== over-budget job refused after recovery =="
client run --dataset d1 --seed 3 "$OUT_DIR/jobs.txt" > "$OUT_DIR/run3.json"
grep -q '"refused"' "$OUT_DIR/run3.json"   # 0.8 + 0.3 > 1.0: cluster job refused
grep -q '"ok"' "$OUT_DIR/run3.json"        # 0.1 median still fits

echo "== standing query ticks at its exact slice after recovery =="
client register --dataset d3 --points 800 --axis 128 \
  --budget-eps 1 --budget-delta 1e-5 > "$OUT_DIR/reregister_d3.json"
grep -q '"replayed": true' "$OUT_DIR/reregister_d3.json"
client append --dataset d3 --points 100 --seed 7 > "$OUT_DIR/append_d3.json"
before=$(tick_eps "$OUT_DIR/standing.json" 'sq#1')
after=$(tick_eps "$OUT_DIR/append_d3.json" 'sq#2')
if [ -z "$before" ] || [ "$before" != "$after" ]; then
  echo "FAIL: post-restart tick ran at ${after:-nothing}, pre-crash tick at ${before:-nothing}" >&2
  exit 1
fi
echo "post-restart tick sq#2 ran at the pre-crash slice, eps $after"

echo "== shed request charges nothing (in-flight cap 1) =="
# The batch must still be in flight when the concurrent request lands.
# Its last job stalls 5 s (the fault schedule the restarted daemon runs),
# so it holds the tenant's one slot for at least that long, however fast
# the other 95 jobs solve, and the sleep below plus client startup stay
# well inside it.
client register --dataset d2 --points 2000 \
  --budget-eps 100 --budget-delta 1e-3 >/dev/null
{
  for i in $(seq 96); do
    echo "one_cluster t_fraction=0.45 eps=0.5 delta=1e-7 id=h$i"
  done
} > "$OUT_DIR/heavy.txt"
client run --dataset d2 --seed 4 "$OUT_DIR/heavy.txt" > "$OUT_DIR/heavy1.json" &
HEAVY=$!
sleep 0.3
set +e
client run --dataset d2 --seed 5 "$OUT_DIR/heavy.txt" > "$OUT_DIR/heavy2.json" 2> "$OUT_DIR/heavy2.err"
SHED_RC=$?
set -e
wait "$HEAVY"
if [ "$SHED_RC" -ne 3 ]; then
  echo "FAIL: expected the concurrent run to be shed (exit 3), got $SHED_RC" >&2
  exit 1
fi
grep -q 'tenant_cap' "$OUT_DIR/heavy2.err"
client ledger --dataset d2 > "$OUT_DIR/ledger_d2.json"
# count within the charges block only (the traced attribution report
# below it also names every job label once)
sed -n '/"charges"/,/\]/p' "$OUT_DIR/ledger_d2.json" > "$OUT_DIR/charges_d2.txt"
for i in 1 96; do
  n=$(grep -c "\"h$i\"" "$OUT_DIR/charges_d2.txt")
  if [ "$n" -ne 1 ]; then
    echo "FAIL: job h$i charged $n times; the shed batch must charge nothing" >&2
    exit 1
  fi
done
echo "shed request charged nothing"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q "privclusterd: clean drain" "$OUT_DIR/serve2.log"
echo "daemon demo OK"
