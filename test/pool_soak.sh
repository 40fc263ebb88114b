#!/bin/sh
# Chaos soak for the supervised worker pool: concurrent retrying clients
# against a multi-process `dpkit serve --workers N` while random workers
# AND the coordinator are kill -9'd mid-wave. End-to-end invariants:
#   - every client reaches a final reply for every request (exit 0),
#     retrying through worker deaths, the coordinator's death window,
#     and fenced restarts;
#   - the lease arbitration never over-grants: at every crash point the
#     merged ledger satisfies spent + outstanding <= global epsilon
#     (`dpkit pool replay` exits 0);
#   - crash-merge recovery is deterministic: the pool-merge report a
#     restarting coordinator prints is bit-identical (hex floats) to a
#     fault-free offline `dpkit pool replay` of the same shard journals
#     and grant WAL, and that replay leaves every one of those files
#     byte-identical;
#   - no noise value is ever released twice across any worker life: the
#     set of fresh (cache=miss) released values over all workers, lives
#     and coordinator generations is duplicate-free;
#   - SIGTERM drains gracefully: exit 0, a merged metrics snapshot that
#     passes `dpkit stats --check`, and a final invariant-clean replay.
#
# POOL_KILL_MODE selects the kill matrix entry: worker | coordinator |
# both (default both — CI runs all three). POOL_FAULTS, when set, is
# passed to every pool as `serve --faults` (e.g. conn-reset=6,write-drop=9).
set -eu

DPKIT="$1"
KILL_MODE="${POOL_KILL_MODE:-both}"
J="pool_soak.wal"
M="pool_soak.metrics"
LOG1="pool_srv1.log"
LOG2="pool_srv2.log"
rm -f "$J" "$J".shard* "$J".grants* "$M" "$M".shard* "$LOG1" "$LOG2" \
  pool_srv_dup.log pool_cli_*.out pool_replay_*.txt

client() { # client PORT JITTER_SEED
  "$DPKIT" client --port "$1" --attempts 20 --backoff 0.02 --backoff-cap 0.4 \
    --timeout 5 --jitter-seed "$2"
}

wait_listening() { # wait_listening LOGFILE
  i=0
  while [ $i -lt 200 ]; do
    if grep -q "listening port=" "$1" 2>/dev/null; then return 0; fi
    i=$((i + 1))
    sleep 0.05
  done
  echo "pool never came up:"; cat "$1"; exit 1
}

worker_pids() { # worker_pids COORD_PID
  ps -ef | awk -v p="$1" '$3 == p { print $2 }'
}

wait_gone() { # wait_gone PID...
  i=0
  while [ $i -lt 100 ]; do
    alive=0
    for p in "$@"; do
      if kill -0 "$p" 2>/dev/null; then alive=1; fi
    done
    [ "$alive" -eq 0 ] && return 0
    i=$((i + 1))
    sleep 0.05
  done
  echo "processes still alive after 5s: $*"; exit 1
}

# --- pool 1: 3 workers on an explicit port (the restart reclaims it) ---
PORT=$((24000 + $$ % 3000))
CPID=""
for try in 0 1 2 3 4; do
  CAND=$((PORT + try))
  "$DPKIT" serve --tcp "$CAND" --workers 3 --journal "$J" \
    ${POOL_FAULTS:+--faults "$POOL_FAULTS"} >"$LOG1" 2>&1 &
  CPID=$!
  sleep 0.3
  if grep -q "listening port=" "$LOG1" 2>/dev/null; then
    PORT=$CAND
    break
  fi
  wait "$CPID" 2>/dev/null || true
  CPID=""
done
[ -n "$CPID" ] || { echo "could not bind any candidate port"; exit 1; }
wait_listening "$LOG1"
grep -q "listening port=$PORT workers=3" "$LOG1" || {
  echo "pool banner wrong:"; cat "$LOG1"; exit 1; }

# --- generation fencing: a second coordinator on the same journal must
# refuse to serve while this generation holds the WAL lock ---------------
set +e
"$DPKIT" serve --tcp $((PORT + 7)) --workers 3 --journal "$J" \
  >pool_srv_dup.log 2>&1
DUPCODE=$?
set -e
[ "$DUPCODE" -ne 0 ] || {
  echo "duplicate coordinator was allowed to serve:"; cat pool_srv_dup.log
  exit 1; }
grep -q "refusing to serve" pool_srv_dup.log || {
  echo "duplicate coordinator died without the lock refusal:"
  cat pool_srv_dup.log; exit 1; }

printf 'register demo rows=400 eps=8 default-eps=0.01\n' \
  | client "$PORT" 100 > pool_cli_reg.out
grep -q 'ok registered name=demo' pool_cli_reg.out || {
  echo "registration failed:"; cat pool_cli_reg.out; exit 1; }

# --- wave 1: concurrent clients across all workers ---------------------
# Every query is mean(income) at a unique eps, so every fresh answer is
# a unique Laplace draw; connections round-robin over the shards.
W1PIDS=""
for i in 1 2 3 4; do
  printf 'query demo mean(income) eps=0.0%d1\nquery demo mean(income) eps=0.0%d2\n' \
    "$i" "$i" | client "$PORT" "$i" > "pool_cli_w1_$i.out" &
  W1PIDS="$W1PIDS $!"
done
for p in $W1PIDS; do wait "$p" || true; done
for i in 1 2 3 4; do
  [ "$(grep -c '^ok seq=' "pool_cli_w1_$i.out")" -eq 2 ] || {
    echo "wave-1 client $i missing answers:"; cat "pool_cli_w1_$i.out"; exit 1; }
done

# --- wave 2: kill -9 a random worker mid-wave --------------------------
if [ "$KILL_MODE" = "worker" ] || [ "$KILL_MODE" = "both" ]; then
  W2PIDS=""
  for i in 1 2 3; do
    printf 'query demo mean(income) eps=0.1%d1\nquery demo mean(income) eps=0.1%d2\nquery demo mean(income) eps=0.1%d3\n' \
      "$i" "$i" "$i" | client "$PORT" "$((10 + i))" > "pool_cli_w2_$i.out" &
    W2PIDS="$W2PIDS $!"
  done
  sleep 0.2
  VICTIM=$(worker_pids "$CPID" | awk -v n="$(($$ % 3 + 1))" 'NR == n')
  [ -n "$VICTIM" ] || VICTIM=$(worker_pids "$CPID" | head -1)
  kill -9 "$VICTIM" 2>/dev/null || true
  for p in $W2PIDS; do
    wait "$p" || {
      echo "a wave-2 client gave up across the worker kill:"
      cat pool_cli_w2_*.out; exit 1; }
  done
  for i in 1 2 3; do
    [ "$(grep -c '^ok seq=' "pool_cli_w2_$i.out")" -eq 3 ] || {
      echo "wave-2 client $i missing answers:"; cat "pool_cli_w2_$i.out"; exit 1; }
  done
  # the supervisor replayed the shard journal and restarted it fenced
  i=0
  while [ $i -lt 100 ]; do
    if grep -q "restarted token=" "$LOG1" 2>/dev/null; then break; fi
    i=$((i + 1)); sleep 0.05
  done
  grep -q "worker shard=[0-9]* restarted token=" "$LOG1" || {
    echo "killed worker never restarted:"; cat "$LOG1"; exit 1; }
fi

# --- wave 3: kill -9 the coordinator mid-wave --------------------------
if [ "$KILL_MODE" = "coordinator" ] || [ "$KILL_MODE" = "both" ]; then
  W3PIDS=""
  for i in 1 2; do
    printf 'query demo mean(income) eps=0.2%d1\nquery demo mean(income) eps=0.2%d2\n' \
      "$i" "$i" | client "$PORT" "$((20 + i))" > "pool_cli_w3_$i.out" &
    W3PIDS="$W3PIDS $!"
  done
  sleep 0.2
  WPIDS=$(worker_pids "$CPID")
  kill -9 "$CPID" 2>/dev/null || true
  wait "$CPID" 2>/dev/null || true
  # orphaned workers detect the reparenting and exit on their own
  # shellcheck disable=SC2086
  wait_gone $WPIDS

  # the offline merge of the crashed state, before anything rewrites it;
  # replay itself must not: every shard journal and the grant WAL keep
  # their bytes, torn tails included
  SUMS_BEFORE=$(cksum "$J".shard* "$J".grants*)
  "$DPKIT" pool replay --journal "$J" --workers 3 > pool_replay_crash.txt || {
    echo "lease invariant violated at the coordinator crash point:"
    cat pool_replay_crash.txt; exit 1; }
  SUMS_AFTER=$(cksum "$J".shard* "$J".grants*)
  [ "$SUMS_BEFORE" = "$SUMS_AFTER" ] || {
    echo "pool replay rewrote the files it inspected:"
    echo "$SUMS_BEFORE"; echo "--"; echo "$SUMS_AFTER"; exit 1; }

  "$DPKIT" serve --tcp "$PORT" --workers 3 --journal "$J" --metrics "$M" \
    ${POOL_FAULTS:+--faults "$POOL_FAULTS"} >"$LOG2" 2>&1 &
  CPID=$!
  wait_listening "$LOG2"

  # crash-merge recovery must print the same merged ledger bit-for-bit
  grep '^pool-merge' "$LOG2" > pool_replay_live.txt
  cmp -s pool_replay_crash.txt pool_replay_live.txt || {
    echo "live recovery merge differs from offline replay:"
    diff pool_replay_crash.txt pool_replay_live.txt || true; exit 1; }

  for p in $W3PIDS; do
    wait "$p" || {
      echo "a wave-3 client gave up across the coordinator kill:"
      cat pool_cli_w3_*.out; exit 1; }
  done
  for i in 1 2; do
    [ "$(grep -c '^ok seq=' "pool_cli_w3_$i.out")" -eq 2 ] || {
      echo "wave-3 client $i missing answers:"; cat "pool_cli_w3_$i.out"; exit 1; }
  done
  DRAINLOG="$LOG2"
else
  DRAINLOG="$LOG1"
fi

# --- wave 4: the recovered pool still serves and still arbitrates ------
printf 'query demo mean(income) eps=0.311\nquery demo mean(income) eps=0.312\nreport demo\n' \
  | client "$PORT" 40 > pool_cli_w4.out
[ "$(grep -c '^ok seq=' pool_cli_w4.out)" -eq 2 ] || {
  echo "post-recovery queries failed:"; cat pool_cli_w4.out; exit 1; }

# --- no noise value is ever released twice -----------------------------
# Fresh (cache=miss) values must be unique across every worker, every
# worker life, and both coordinator generations; cache=hit repeats are
# post-processing and exempt.
DUPES=$(sed -n 's/^ok seq=[0-9]* value=\([^ ]*\).*cache=miss.*/\1/p' pool_cli_*.out | sort | uniq -d)
[ -z "$DUPES" ] || { echo "noise value released twice: $DUPES"; exit 1; }

# --- graceful drain ----------------------------------------------------
kill -TERM "$CPID"
set +e
wait "$CPID"
CODE=$?
set -e
[ "$CODE" -eq 0 ] || { echo "drain exited $CODE, expected 0:"; cat "$DRAINLOG"; exit 1; }
grep -q 'drained' "$DRAINLOG" || { echo "no drain marker:"; cat "$DRAINLOG"; exit 1; }
if [ "$KILL_MODE" = "coordinator" ] || [ "$KILL_MODE" = "both" ]; then
  [ -s "$M" ] || { echo "merged metrics snapshot missing"; exit 1; }
  "$DPKIT" stats --check "$M" >/dev/null || {
    echo "merged metrics failed stats --check"; exit 1; }
  grep -q 'pool_leases_granted' "$M" || {
    echo "pool counters missing from merged metrics:"; cat "$M"; exit 1; }
fi

# --- the drained state replays clean and deterministically -------------
"$DPKIT" pool replay --journal "$J" --workers 3 > pool_replay_final1.txt || {
  echo "final replay found a violated invariant:"; cat pool_replay_final1.txt; exit 1; }
"$DPKIT" pool replay --journal "$J" --workers 3 > pool_replay_final2.txt
cmp -s pool_replay_final1.txt pool_replay_final2.txt || {
  echo "offline replay is not deterministic:"; exit 1; }
grep -q 'invariant=ok' pool_replay_final1.txt || {
  echo "merged ledger invariant violated:"; cat pool_replay_final1.txt; exit 1; }

rm -f "$J" "$J".shard* "$J".grants* "$M" "$M".shard* "$LOG1" "$LOG2" \
  pool_srv_dup.log pool_cli_*.out pool_replay_*.txt
