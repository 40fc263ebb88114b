#!/bin/sh
# dpkit flow must (1) flag every seeded interprocedural violation in
# flow_corpus/ — findings the token linter provably misses — with a
# witness path, (2) leave `dpkit lint` silent on that same corpus,
# (3) under `lint --flow`, report F2/F3 on the lexical corpus files
# of the retired R2/R8/R9, and F1 on retired R6's, (4) honour rule-range exemptions and the
# checked-in baseline, and (5) report nothing fresh on the
# repository's own sources.
set -u

DPKIT="$1"

# --- 1. the flow corpus: exactly 10 findings, 2×F1 + 4×F2 + 4×F3 ---
out=$("$DPKIT" flow --format json flow_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: corpus flow exited 0 (seeded violations not detected)"
  exit 1
fi

n=$(printf '%s\n' "$out" | grep -c '"rule"')
f1=$(printf '%s\n' "$out" | grep -c '"rule":"F1"')
f2=$(printf '%s\n' "$out" | grep -c '"rule":"F2"')
f3=$(printf '%s\n' "$out" | grep -c '"rule":"F3"')
if [ "$n" -ne 10 ] || [ "$f1" -ne 2 ] || [ "$f2" -ne 4 ] || [ "$f3" -ne 4 ]; then
  echo "FAIL: expected 10 corpus findings (2 F1, 4 F2, 4 F3), got $n ($f1/$f2/$f3)"
  printf '%s\n' "$out"
  exit 1
fi

for f in launder_main synopsis_reply charge_branch journal_first fire_helper \
         wrap_helper smuggle_main seed_engine seed_net pool; do
  if ! printf '%s\n' "$out" | grep -q "$f\.ml"; then
    echo "FAIL: no finding reported in $f.ml"
    printf '%s\n' "$out"
    exit 1
  fi
done

# every corpus finding is interprocedural or whole-program: its witness
# must exist, and the cross-module ones must span two files
text=$("$DPKIT" flow flow_corpus)
for w in \
  "launder_helper.ml:7:12 row-tainted born" \
  "synopsis_reply.ml:8:34 row-tainted born at Registry.synopsis" \
  "fire_main.ml:7:22 call to Fire_helper.fire" \
  "release_main.ml:11:2 call to Wrap_helper.wrap" \
  "smuggle_main.ml:10:27 certify-owned stream born" \
  "seed_net.ml:6:16 seed 0x5EED in net domain" \
  "pool.ml:14:41 call to Pool.shard in Pool.respawn"; do
  if ! printf '%s\n' "$text" | grep -q "via .*$w"; then
    echo "FAIL: witness step missing: $w"
    printf '%s\n' "$text"
    exit 1
  fi
done

# --- 2. the token linter is blind to all of them -------------------
if ! "$DPKIT" lint flow_corpus; then
  echo "FAIL: dpkit lint flagged flow_corpus — corpus no longer exercises"
  echo "      the interprocedural gap (a token rule caught a case)"
  exit 1
fi

# --- 3. lint --flow parity over the lexical corpus -----------------
out=$("$DPKIT" lint --flow --format json lint_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: lint --flow exited 0 on lint_corpus"
  exit 1
fi
for r in R2 R8 R9; do
  if printf '%s\n' "$out" | grep -q "\"rule\":\"$r\""; then
    echo "FAIL: lint --flow still reports lexical $r"
    printf '%s\n' "$out"
    exit 1
  fi
done
for pair in "bad_r2.ml F2" "bad_r8.ml F2" "bad_r9.ml F3"; do
  file=${pair% *}; rule=${pair#* }
  if ! printf '%s\n' "$out" | grep "\"rule\":\"$rule\"" | grep -q "$file"; then
    echo "FAIL: lint --flow did not report $rule on $file"
    printf '%s\n' "$out"
    exit 1
  fi
done
# lint --flow passes only F2/F3 through; R6's case is dpkit flow's F1
out=$("$DPKIT" flow --format json lint_corpus)
if ! printf '%s\n' "$out" | grep '"rule":"F1"' | grep -q "bad_r6.ml"; then
  echo "FAIL: dpkit flow did not report F1 on bad_r6.ml"
  printf '%s\n' "$out"
  exit 1
fi

# --- 4. a rule-range exemption silences the whole family -----------
ex=$(mktemp)
printf 'F1-F3 flow_corpus/\n' > "$ex"
if ! "$DPKIT" flow --exempt "$ex" flow_corpus > /dev/null; then
  rm -f "$ex"
  echo "FAIL: F1-F3 range exemption did not suppress the corpus findings"
  exit 1
fi
rm -f "$ex"

# --- 5. SARIF carries fingerprints and code flows ------------------
sarif=$("$DPKIT" flow --format sarif flow_corpus)
for key in '"partialFingerprints"' '"dpkitFlow/v1"' '"codeFlows"' \
           '"threadFlows"'; do
  if ! printf '%s\n' "$sarif" | grep -qF "$key"; then
    echo "FAIL: SARIF output missing $key"
    exit 1
  fi
done

# --- 6. the repository itself is clean modulo the baseline ---------
# Baseline fingerprints include the finding's path as written, so the
# check must run from the root the baseline was recorded against.
DPKIT_ABS=$(cd "$(dirname "$DPKIT")" && pwd)/$(basename "$DPKIT")
real=$(cd .. && "$DPKIT_ABS" flow --baseline flow.baseline lib)
if [ $? -ne 0 ]; then
  echo "FAIL: repository sources have non-baselined flow findings"
  printf '%s\n' "$real"
  exit 1
fi
case "$real" in
  "0 findings ("*" baselined"*) : ;;
  *)
    echo "FAIL: unexpected flow summary on ../lib: $real"
    exit 1 ;;
esac

echo "flow: 10/10 corpus violations flagged with witnesses, lint blind to all,"
echo "      lint --flow and F1 parity hold, range exemptions + baseline honoured"
