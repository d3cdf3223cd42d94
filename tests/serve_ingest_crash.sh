#!/bin/sh
# Served ingest survives a daemon crash, with no drain to flush it:
#   run 1: boot jarvis_serve, ingest the first half of a simulated log over
#          the wire, kill -9; `learn` reads every line back from the
#          tenant's ingest log and drops none;
#   run 2: cut that log mid-line (a write torn by a crash), boot on the same
#          directory, ingest the second half, kill -9; `learn` drops
#          exactly the torn line and keeps every other event;
#   run 3: on a fresh directory, ingest a 40-day log (past the 1 MiB frame
#          cap, so the client sends it in batches); every line is accepted
#          and the tenant log is byte-equal to it.
# Usage: serve_ingest_crash.sh JARVIS_SERVE JARVIS_CLI SCRATCH_DIR
set -eu

serve=$1
cli=$2
dir=$3
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

fail() {
  echo "serve_ingest_crash: FAIL: $*" >&2
  exit 1
}

pid=""
trap '[ -z "$pid" ] || kill -9 "$pid" 2>/dev/null || true' EXIT

# Boots a one-tenant daemon on an ephemeral port and waits until it listens.
boot() {
  rm -f port
  "$serve" --tenants 1 --episodes 2 --days 1 --checkpoint-dir ckpt \
    --port-file port 2> "serve-$1.err" &
  pid=$!
  tries=0
  while [ ! -s port ]; do
    kill -0 "$pid" 2>/dev/null || fail "daemon exited: $(cat "serve-$1.err")"
    tries=$((tries + 1))
    [ "$tries" -le 600 ] || fail "daemon did not listen within 300 s"
    sleep 0.5
  done
}

# Ingests log $1 into tenant 0; every line must be accepted.
ingest() {
  "$cli" client ingest --port-file port --tenant 0 --log "$1" > out.txt
  cat out.txt
  grep -q "\"accepted\":$(wc -l < "$1")," out.txt ||
    fail "not every line of $1 accepted"
}

crash() {
  kill -9 "$pid"
  wait "$pid" 2>/dev/null || true
  pid=""
}

# Runs learn on the ingest log and checks its event and dropped counts.
learn_reports() {
  "$cli" learn --log ckpt/ingest-tenant-0.log --out home.ckpt > out.txt
  cat out.txt
  grep -q "^parsed $1 events ($2 dropped) " out.txt ||
    fail "learn did not report $1 events ($2 dropped)"
}

"$cli" simulate --days 2 --seed 3 --out events.log > /dev/null
lines=$(wc -l < events.log)
[ "$lines" -gt 1 ] || fail "simulate wrote too few events"
half=$((lines / 2))
head -n "$half" events.log > first.log
tail -n +"$((half + 1))" events.log > second.log

boot first
ingest first.log
crash
learn_reports "$half" 0

size=$(wc -c < ckpt/ingest-tenant-0.log)
truncate -s $((size - 40)) ckpt/ingest-tenant-0.log
boot second
ingest second.log
crash
learn_reports $((lines - 1)) 1

"$cli" simulate --days 40 --seed 4 --out big.log > /dev/null
[ "$(wc -c < big.log)" -gt 1048576 ] || fail "big.log fits one frame"
rm -rf ckpt
boot third
ingest big.log
crash
cmp big.log ckpt/ingest-tenant-0.log ||
  fail "the tenant log differs from the ingested big.log"
echo "serve_ingest_crash: OK"
