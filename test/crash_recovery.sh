#!/bin/sh
# Kill-and-restart integration test for the write-ahead budget journal.
#
# Phase 1 serves three fresh queries with a crash injected between the
# third query's durable batch (its charge and cache record) and its
# answer (the process dies with the budget spent and nothing released).
# Phase 2 restarts on the same journal and checks the crash-safety
# invariants end to end:
#   - spent epsilon is monotone across the crash: all three charges
#     survive, including the one whose answer never left the process;
#   - pre-crash answers replay from the recovered cache bit-identically;
#   - the crashed query was charged once: re-asked after the restart it
#     is a cache hit that charges nothing.
# A train leg then crashes a train the same way: its charge and model
# frame are one batch, so the restart resolves the model with its
# journaled theta and the charge is spent exactly once.
set -eu

DPKIT="$1"
J="crash_test.wal"
rm -f "$J"

set +e
OUT1=$(printf 'register demo rows=400 eps=1\nquery demo count\nquery demo mean(income)\nquery demo sum(income)\nquit\n' \
  | "$DPKIT" serve --journal "$J" --faults crash-after-charge=3 2>/dev/null)
CODE=$?
set -e

if [ "$CODE" -ne 70 ]; then
  echo "expected exit 70 (injected crash), got $CODE"
  echo "$OUT1"
  exit 1
fi

# two answers released before the crash, the third never
if [ "$(echo "$OUT1" | grep -c '^ok seq=')" -ne 2 ]; then
  echo "expected exactly 2 released answers before the crash:"
  echo "$OUT1"
  exit 1
fi

VALUE1=$(echo "$OUT1" | sed -n 's/^ok seq=0 value=\([^ ]*\).*/\1/p')
if [ -z "$VALUE1" ]; then
  echo "no first answer in transcript:"
  echo "$OUT1"
  exit 1
fi

OUT2=$(printf 'report demo\nquery demo count\nquery demo sum(income)\nreport demo\nquit\n' \
  | "$DPKIT" serve --journal "$J" 2>/dev/null)

# budget not reset: 3 charges of 0.1 each, crashed one included, and
# still 0.3 after the crashed query is re-asked
if [ "$(echo "$OUT2" | grep -c 'eps-spent=0\.3 ')" -ne 2 ]; then
  echo "spent budget lost, reset or charged again across the crash:"
  echo "$OUT2"
  exit 1
fi

# the crashed query's batch was durable before the crash: its re-ask
# replays the cached answer and charges nothing
if ! echo "$OUT2" | grep '^ok seq=' | sed -n 2p | grep -q 'eps-charged=0 cache=hit'; then
  echo "crashed sum(income) not replayed from the recovered cache:"
  echo "$OUT2"
  exit 1
fi

# the pre-crash answer replays from the recovered cache, bit-identical
if ! echo "$OUT2" | grep -q "^ok seq=[0-9]* value=$VALUE1 .*cache=hit"; then
  echo "recovered cache answer missing or not bit-identical to $VALUE1:"
  echo "$OUT2"
  exit 1
fi

rm -f "$J"

# --- train leg: a crash after the train's batch keeps its model --------
set +e
OUT3=$(printf 'register demo rows=400 eps=1\ntrain demo backend=objpert eps=0.3\nquit\n' \
  | "$DPKIT" serve --journal "$J" --faults crash-after-charge=1 2>/dev/null)
CODE=$?
set -e

if [ "$CODE" -ne 70 ]; then
  echo "train leg: expected exit 70 (injected crash), got $CODE"
  echo "$OUT3"
  exit 1
fi

OUT4=$(printf 'model demo/m1\nreport demo\nquit\n' \
  | "$DPKIT" serve --journal "$J" 2>/dev/null)

if ! echo "$OUT4" | grep -q '^ok model demo/m1 .*released=yes'; then
  echo "crashed train's model not recovered from its batch:"
  echo "$OUT4"
  exit 1
fi

if ! echo "$OUT4" | grep -q 'eps-spent=0\.3 '; then
  echo "crashed train's charge lost or spent twice:"
  echo "$OUT4"
  exit 1
fi

rm -f "$J"
