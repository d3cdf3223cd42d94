#!/bin/sh
# The CLI's durable-state workflow end to end on files:
#   run 1: simulate -> learn --day -> audit -> optimize -> suggest, every
#          step restoring the checkpoint `learn` wrote;
#   run 2: a truncated checkpoint makes audit exit non-zero and print the
#          issue on its own line.
# Usage: cli_lifecycle.sh JARVIS_CLI SCRATCH_DIR
set -eu

cli=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

fail() {
  echo "cli_lifecycle: FAIL: $*" >&2
  exit 1
}

# Runs one step, prints its output, and fails on a non-zero exit.
run() {
  status=0
  "$cli" "$@" > out.txt 2>&1 || status=$?
  cat out.txt
  [ "$status" -eq 0 ] || fail "jarvis_cli $1 exited $status"
}

run simulate --days 3 --seed 3 --out events.log
run learn --log events.log --seed 3 --day 5 --episodes 2 --out home.ckpt
test -s home.ckpt || fail "learn wrote no checkpoint"

run audit --log events.log --checkpoint home.ckpt
grep -q '^restore home.ckpt: found, 1 sections restored, 0 failed$' out.txt ||
  fail "audit did not restore the policies (and only them) cleanly"
grep -q ' 0 violations, ' out.txt ||
  fail "a home's audit of its own log must find 0 violations"

run optimize --checkpoint home.ckpt --episodes 2
grep -q '^restore home.ckpt: found, 2 sections restored, 0 failed$' out.txt ||
  fail "optimize did not restore policies and DQN cleanly"
grep -q '^  jarvis : ' out.txt || fail "optimize printed no plan"

run suggest --checkpoint home.ckpt --episodes 2 --minute 480
grep -q '^suggested action at 08:00: (' out.txt ||
  fail "suggest printed no action"

head -c 3000 home.ckpt > truncated.ckpt
if "$cli" audit --log events.log --checkpoint truncated.ckpt > out.txt 2>&1
then
  cat out.txt
  fail "audit on a truncated checkpoint exited 0"
fi
cat out.txt
grep -q '^issues: spl: payload truncated' out.txt ||
  fail "the truncation issue is not on its own line"
grep -q '^policies not restored' out.txt ||
  fail "audit did not say the policies were lost"
echo "cli_lifecycle: OK"
