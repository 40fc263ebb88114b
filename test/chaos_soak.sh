#!/bin/sh
# Chaos soak for the TCP frontend: concurrent retrying clients against a
# fault-armed server that is kill -9'd mid-wave and restarted on the
# same journal. End-to-end invariants checked:
#   - every client reaches a final reply for every request (exit 0),
#     retrying through injected accept failures, read stalls, dropped
#     and torn replies, and the hard restart;
#   - no noise value is ever released twice: the set of fresh
#     (cache=miss) released values across both server lives is
#     duplicate-free;
#   - no answer leaves the server before its records are durable: every
#     wave-1 and wave-2 answer, including those in flight at the kill -9,
#     re-asked after the restarts replays from the recovered cache
#     bit-identically and charges nothing;
#   - the journal is the truth: spent epsilon and answered counts from
#     the live (recovered, post-soak) report agree with a fault-free
#     offline replay of the same journal, and the audit trace verifies;
#   - trained model handles are durable: a kill -9 mid-chain loses no
#     released model (theta and predictions replay bit-identically from
#     the journal's Train frames), a withheld-unconverged handle stays
#     withheld across the restart, and no released theta is ever
#     duplicated across server lives;
#   - continual streams are durable: a kill -9 mid-append-burst loses
#     no accepted append — after recovery the live stream's prefix and
#     window counts agree bit-identically (hex floats) with a pure
#     offline replay of the journal's Stream frames, two independent
#     recoveries release identical counts, and no tree-node noise is
#     redrawn on recovery (append frames carry the noisy values);
#   - SIGTERM drains gracefully: exit 0, all charges journaled, and the
#     final metrics snapshot passes `dpkit stats --check`.
#
# The multi-process pool wave (kill -9 of random workers AND the
# coordinator under `serve --workers N`, crash-merge recovery checked
# bit-identical against `dpkit pool replay`) lives in pool_soak.sh,
# which runs alongside this script under the same runtest alias.
set -eu

DPKIT="$1"
J="chaos_soak.wal"
M="chaos_soak.metrics"
SRVLOG1="chaos_srv1.log"
SRVLOG2="chaos_srv2.log"
SRVLOG3="chaos_srv3.log"
rm -f "$J" "$M" "$SRVLOG1" "$SRVLOG2" "$SRVLOG3" chaos_cli_*.out chaos_reask.*

client() { # client PORT JITTER_SEED
  "$DPKIT" client --port "$1" --attempts 15 --backoff 0.02 --backoff-cap 0.3 \
    --timeout 3 --jitter-seed "$2"
}

wait_listening() { # wait_listening LOGFILE
  i=0
  while [ $i -lt 100 ]; do
    if grep -q "listening port=" "$1" 2>/dev/null; then return 0; fi
    i=$((i + 1))
    sleep 0.05
  done
  echo "server never came up:"; cat "$1"; exit 1
}

# --- server 1: fault-armed, will be kill -9'd mid-wave -----------------
# The port must be explicit (not ephemeral) so the restarted server can
# reclaim it; retry a few candidates in case one is taken.
PORT=$((21000 + $$ % 3000))
PID1=""
for try in 0 1 2 3 4; do
  CAND=$((PORT + try))
  "$DPKIT" serve --tcp "$CAND" --journal "$J" \
    --faults "accept-fail=2,read-stall=3,conn-reset=4,write-drop=6" \
    >"$SRVLOG1" 2>&1 &
  PID1=$!
  sleep 0.3
  if grep -q "listening port=" "$SRVLOG1" 2>/dev/null; then
    PORT=$CAND
    break
  fi
  wait "$PID1" 2>/dev/null || true
  PID1=""
done
[ -n "$PID1" ] || { echo "could not bind any candidate port"; exit 1; }
wait_listening "$SRVLOG1"

printf 'register demo rows=400 eps=8 default-eps=0.01\n' \
  | client "$PORT" 100 > chaos_cli_reg.out
grep -q 'ok registered name=demo' chaos_cli_reg.out || {
  echo "registration failed:"; cat chaos_cli_reg.out; exit 1; }

# --- wave 1: concurrent clients, distinct eps per query ----------------
# Every query is mean(income) at a unique eps, so every fresh answer is
# a unique Laplace draw and its reply is identifiable by eps-charged.
W1PIDS=""
for i in 1 2 3; do
  printf 'query demo mean(income) eps=0.0%d1\nquery demo mean(income) eps=0.0%d2\nquery demo mean(income) eps=0.0%d3\n' \
    "$i" "$i" "$i" | client "$PORT" "$i" > "chaos_cli_w1_$i.out" &
  W1PIDS="$W1PIDS $!"
done
for p in $W1PIDS; do wait "$p" || true; done
for i in 1 2 3; do
  [ "$(grep -c '^ok seq=' "chaos_cli_w1_$i.out")" -eq 3 ] || {
    echo "wave-1 client $i missing answers:"; cat "chaos_cli_w1_$i.out"; exit 1; }
done

# --- wave 2: kill -9 mid-wave, restart on the same journal -------------
W2PIDS=""
for i in 1 2 3; do
  printf 'query demo mean(income) eps=0.1%d1\nquery demo mean(income) eps=0.1%d2\nquery demo mean(income) eps=0.1%d3\n' \
    "$i" "$i" "$i" | client "$PORT" "$((10 + i))" > "chaos_cli_w2_$i.out" &
  W2PIDS="$W2PIDS $!"
done
sleep 0.25
kill -9 "$PID1" 2>/dev/null || true
wait "$PID1" 2>/dev/null || true
sleep 0.2
"$DPKIT" serve --tcp "$PORT" --journal "$J" --metrics "$M" --faults off \
  >"$SRVLOG2" 2>&1 &
PID2=$!
wait_listening "$SRVLOG2"

W2FAIL=0
for p in $W2PIDS; do
  wait "$p" || W2FAIL=1
done
[ "$W2FAIL" -eq 0 ] || {
  echo "a wave-2 client gave up across the restart:"
  cat chaos_cli_w2_*.out; exit 1; }
for i in 1 2 3; do
  [ "$(grep -c '^ok seq=' "chaos_cli_w2_$i.out")" -eq 3 ] || {
    echo "wave-2 client $i missing answers:"; cat "chaos_cli_w2_$i.out"; exit 1; }
done

# --- train wave: model handles survive kill -9 mid-chain ---------------
# One released model (objective perturbation: deterministic gate), one
# deterministically-withheld model (frozen gibbs proposal), then a long
# gibbs train left in flight when the server is kill -9'd. The journal's
# Train frames must rebuild the first two handles bit-identically. A
# train's charge and model frame are one batch written after its chains,
# so the interrupted train leaves neither: nothing was released, as for
# a query killed mid-draw, and its retry is priced as a fresh request.
printf 'train demo backend=objpert eps=0.3\nmodel demo/m1\npredict demo/m1 40,50000\ntrain demo eps=0.05 steps=16 burn=0 step-std=1e-12\nmodel demo/m2\n' \
  | client "$PORT" 300 > chaos_cli_train.out
grep -q 'ok trained model=demo/m1 backend=objective-perturbation .*released=yes' \
  chaos_cli_train.out || {
  echo "objpert train failed:"; cat chaos_cli_train.out; exit 1; }
grep -q 'err degraded reason=unconverged model=demo/m2' chaos_cli_train.out || {
  echo "frozen gibbs train not withheld:"; cat chaos_cli_train.out; exit 1; }
THETA1=$(grep '^  theta=' chaos_cli_train.out | head -1)
[ -n "$THETA1" ] || { echo "no theta line for demo/m1"; cat chaos_cli_train.out; exit 1; }
PRED1=$(sed -n 's/^ok predict model=demo\/m1 value=\([^ ]*\).*/\1/p' chaos_cli_train.out)
[ -n "$PRED1" ] || { echo "no prediction for demo/m1"; cat chaos_cli_train.out; exit 1; }

# --- stream wave: a continual counter killed mid-append-burst ----------
# Open a tree-mechanism stream, land 60 appends and read the released
# prefix, then fire a 300-append burst that the kill -9 below lands in
# the middle of. The burst client retries through the restart; accepted
# appends are journaled (noisy node values included) before the tree
# mutates, so whatever subset landed is exactly what every recovery
# replays.
{
  printf 'stream new demo N=512 window=32 eps=0.005\n'
  awk 'BEGIN { for (i = 0; i < 60; i++) print "append demo/s1 " i % 2 }'
  printf 'stream read demo/s1\n'
} | client "$PORT" 310 > chaos_cli_stream_pre.out
grep -q 'ok stream handle=demo/s1 N=512 window=32' chaos_cli_stream_pre.out || {
  echo "stream open failed:"; cat chaos_cli_stream_pre.out; exit 1; }
[ "$(grep -c '^ok append stream=demo/s1' chaos_cli_stream_pre.out)" -eq 60 ] || {
  echo "pre-kill appends missing:"; cat chaos_cli_stream_pre.out; exit 1; }
grep -q 'ok stream-read stream=demo/s1 t=60 ' chaos_cli_stream_pre.out || {
  echo "pre-kill stream read failed:"; cat chaos_cli_stream_pre.out; exit 1; }

awk 'BEGIN { for (i = 0; i < 300; i++) print "append demo/s1 " (i + 1) % 2 }' \
  | client "$PORT" 311 > chaos_cli_stream_burst.out &
SPID=$!

printf 'train demo eps=0.05 steps=8000 burn=8000\n' \
  | client "$PORT" 301 > chaos_cli_train_w3.out &
TPID=$!
sleep 0.35
kill -9 "$PID2" 2>/dev/null || true
wait "$PID2" 2>/dev/null || true
sleep 0.2
"$DPKIT" serve --tcp "$PORT" --journal "$J" --metrics "$M" --faults off \
  >"$SRVLOG3" 2>&1 &
PID3=$!
wait_listening "$SRVLOG3"
wait "$TPID" || true
wait "$SPID" || {
  echo "append-burst client gave up across the restart:"
  cat chaos_cli_stream_burst.out; exit 1; }

# Every burst append reached a final reply (ok, or a typed final error —
# a retried append that already landed pre-kill may overshoot nothing
# here since N=512 > 360, so they must all be ok).
[ "$(grep -c '^ok append stream=demo/s1' chaos_cli_stream_burst.out)" -ge 300 ] || {
  echo "burst appends missing finals:"; cat chaos_cli_stream_burst.out; exit 1; }

# The recovered-and-continued live stream vs a pure journal replay:
# prefix and window counts must agree to the last bit (hex floats).
printf 'stream read demo/s1\nstream window demo/s1\n' \
  | client "$PORT" 312 > chaos_cli_stream_verify.out
LIVE_SREAD=$(sed -n 's/^ok stream-read .* count-hex=\([^ ]*\).*/\1/p' chaos_cli_stream_verify.out)
LIVE_SWIN=$(sed -n 's/^ok stream-window .* count-hex=\([^ ]*\).*/\1/p' chaos_cli_stream_verify.out)
LIVE_ST=$(sed -n 's/^ok stream-read stream=demo\/s1 t=\([0-9]*\).*/\1/p' chaos_cli_stream_verify.out)
[ -n "$LIVE_SREAD" ] && [ -n "$LIVE_SWIN" ] || {
  echo "post-restart stream reads failed:"; cat chaos_cli_stream_verify.out; exit 1; }

printf 'model demo/m1\npredict demo/m1 40,50000\nmodel demo/m2\n' \
  | client "$PORT" 302 > chaos_cli_train_verify.out
THETA2=$(grep '^  theta=' chaos_cli_train_verify.out | head -1)
[ "$THETA1" = "$THETA2" ] || {
  echo "recovered theta not bit-identical:"
  echo "  before: $THETA1"; echo "  after:  $THETA2"; exit 1; }
PRED2=$(sed -n 's/^ok predict model=demo\/m1 value=\([^ ]*\).*/\1/p' chaos_cli_train_verify.out)
[ "$PRED1" = "$PRED2" ] || {
  echo "recovered prediction diverges: $PRED1 vs $PRED2"; exit 1; }
grep -q 'ok model demo/m2 .*released=no' chaos_cli_train_verify.out || {
  echo "withheld model released (or lost) across restart:"
  cat chaos_cli_train_verify.out; exit 1; }

# No released theta is ever duplicated: across both lives, distinct
# handles carry distinct thetas (same-handle replays are exempt).
TDUPES=$(grep -h '^ok model\|^  theta=' chaos_cli_train*.out \
  | awk '/^ok model/ { h=$3 } /^  theta=/ { print h "\t" $0 }' \
  | sort -u | cut -f2 | sort | uniq -d)
[ -z "$TDUPES" ] || { echo "theta released twice: $TDUPES"; exit 1; }

# --- recovered cache: every released answer replays bit-identically ---
# Each client sends its queries sequentially, so its k-th answer is the
# one to its k-th query (eps=0.<wave-1><client><k>), even when a dropped
# reply forced a retry that came back as a cache=hit instead of the
# original fresh charge. Wave 2's kill -9 lands while releases are in
# flight, so this is the end-to-end check that no answer left the
# server before its charge and cache record were durable.
: > chaos_reask.queries
: > chaos_reask.expected
for w in 1 2; do
  for i in 1 2 3; do
    k=1
    for v in $(sed -n 's/^ok seq=[0-9]* value=\([^ ]*\) .*/\1/p' "chaos_cli_w${w}_$i.out"); do
      printf 'query demo mean(income) eps=0.%d%d%d\n' $((w - 1)) "$i" "$k" >> chaos_reask.queries
      echo "$v" >> chaos_reask.expected
      k=$((k + 1))
    done
  done
done
[ "$(wc -l < chaos_reask.expected)" -eq 18 ] || {
  echo "expected 18 wave-1/wave-2 answers to re-ask:"; cat chaos_reask.expected; exit 1; }
{ cat chaos_reask.queries; printf 'report demo\nreplay demo\n'; } \
  | client "$PORT" 200 > chaos_cli_verify.out
sed -n 's/^ok seq=[0-9]* value=\([^ ]*\) .*eps-charged=0 cache=hit$/\1/p' \
  chaos_cli_verify.out > chaos_reask.got
cmp -s chaos_reask.expected chaos_reask.got || {
  echo "released answers not replayed bit-identically as free cache hits:"
  paste chaos_reask.queries chaos_reask.expected
  cat chaos_cli_verify.out; exit 1; }
grep -q 'ok replay consistent' chaos_cli_verify.out || {
  echo "live audit replay inconsistent:"; cat chaos_cli_verify.out; exit 1; }
LIVE_SPENT=$(sed -n 's/.*eps-total=[^ ]* eps-spent=\([^ ]*\).*/\1/p' chaos_cli_verify.out)
LIVE_ANSWERED=$(sed -n 's/.*queries=[0-9]* answered=\([0-9]*\).*/\1/p' chaos_cli_verify.out)

# --- no noise value is ever released twice -----------------------------
# Fresh (cache=miss) released values must be unique across both server
# lives; cache=hit repeats are post-processing and exempt.
DUPES=$(sed -n 's/^ok seq=[0-9]* value=\([^ ]*\).*cache=miss.*/\1/p' chaos_cli_*.out | sort | uniq -d)
[ -z "$DUPES" ] || { echo "noise value released twice: $DUPES"; exit 1; }

# --- graceful drain ----------------------------------------------------
kill -TERM "$PID3"
set +e
wait "$PID3"
CODE=$?
set -e
[ "$CODE" -eq 0 ] || { echo "drain exited $CODE, expected 0:"; cat "$SRVLOG3"; exit 1; }
grep -q 'drained' "$SRVLOG3" || { echo "no drain marker:"; cat "$SRVLOG3"; exit 1; }
[ -s "$M" ] || { echo "metrics snapshot missing"; exit 1; }
"$DPKIT" stats --check "$M" >/dev/null || {
  echo "metrics snapshot failed stats --check"; exit 1; }

# --- fault-free offline replay agrees with the live report -------------
OFFLINE=$(printf 'report demo\nreplay demo\nstream read demo/s1\nstream window demo/s1\nquit\n' \
  | "$DPKIT" serve --journal "$J" 2>/dev/null)
OFF_SPENT=$(echo "$OFFLINE" | sed -n 's/.*eps-total=[^ ]* eps-spent=\([^ ]*\).*/\1/p')
OFF_ANSWERED=$(echo "$OFFLINE" | sed -n 's/.*queries=[0-9]* answered=\([0-9]*\).*/\1/p')
echo "$OFFLINE" | grep -q 'ok replay consistent' || {
  echo "offline audit replay inconsistent:"; echo "$OFFLINE"; exit 1; }
[ -n "$LIVE_SPENT" ] && [ "$LIVE_SPENT" = "$OFF_SPENT" ] || {
  echo "spent epsilon diverges: live=$LIVE_SPENT offline=$OFF_SPENT"; exit 1; }
[ -n "$LIVE_ANSWERED" ] && [ "$LIVE_ANSWERED" = "$OFF_ANSWERED" ] || {
  echo "answered counts diverge: live=$LIVE_ANSWERED offline=$OFF_ANSWERED"; exit 1; }

# The stream frames are part of the same truth: the offline replay's
# prefix/window counts must match the post-restart live ones bit-for-bit
# (recovery applied the journaled node noise, never redrew it), and a
# second independent replay must agree with the first — recovering twice
# releases the same counts and the same noise.
OFF_SREAD=$(echo "$OFFLINE" | sed -n 's/^ok stream-read .* count-hex=\([^ ]*\).*/\1/p')
OFF_SWIN=$(echo "$OFFLINE" | sed -n 's/^ok stream-window .* count-hex=\([^ ]*\).*/\1/p')
OFF_ST=$(echo "$OFFLINE" | sed -n 's/^ok stream-read stream=demo\/s1 t=\([0-9]*\).*/\1/p')
[ "$LIVE_SREAD" = "$OFF_SREAD" ] || {
  echo "recovered prefix count diverges: live=$LIVE_SREAD offline=$OFF_SREAD"; exit 1; }
[ "$LIVE_SWIN" = "$OFF_SWIN" ] || {
  echo "recovered window count diverges: live=$LIVE_SWIN offline=$OFF_SWIN"; exit 1; }
[ "$LIVE_ST" = "$OFF_ST" ] || {
  echo "recovered stream length diverges: live=$LIVE_ST offline=$OFF_ST"; exit 1; }
OFFLINE2=$(printf 'stream read demo/s1\nstream window demo/s1\nquit\n' \
  | "$DPKIT" serve --journal "$J" 2>/dev/null)
OFF2_SREAD=$(echo "$OFFLINE2" | sed -n 's/^ok stream-read .* count-hex=\([^ ]*\).*/\1/p')
OFF2_SWIN=$(echo "$OFFLINE2" | sed -n 's/^ok stream-window .* count-hex=\([^ ]*\).*/\1/p')
[ "$OFF_SREAD" = "$OFF2_SREAD" ] && [ "$OFF_SWIN" = "$OFF2_SWIN" ] || {
  echo "two recoveries disagree: $OFF_SREAD/$OFF_SWIN vs $OFF2_SREAD/$OFF2_SWIN"; exit 1; }

rm -f "$J" "$M" "$SRVLOG1" "$SRVLOG2" "$SRVLOG3" chaos_cli_*.out chaos_reask.*
