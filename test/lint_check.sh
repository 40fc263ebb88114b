#!/bin/sh
# dpkit lint must (1) flag every seeded violation in lint_corpus/ with
# the expected rule id — one finding per live rule, five total (the
# retired R2/R6/R8/R9 files are flow_check.sh's) — (2) honour per-rule
# exemptions, and (3) report zero findings on the repository itself.
set -u

DPKIT="$1"

out=$("$DPKIT" lint --format json lint_corpus)
if [ $? -eq 0 ]; then
  echo "FAIL: corpus lint exited 0 (seeded violations not detected)"
  exit 1
fi

for r in R1 R3 R4 R5 R7; do
  if ! printf '%s\n' "$out" | grep -q "\"rule\":\"$r\""; then
    echo "FAIL: rule $r did not fire on its corpus file"
    printf '%s\n' "$out"
    exit 1
  fi
done

n=$(printf '%s\n' "$out" | grep -c '"rule"')
if [ "$n" -ne 5 ]; then
  echo "FAIL: expected exactly 5 corpus findings, got $n"
  printf '%s\n' "$out"
  exit 1
fi

# A per-rule exemption must suppress exactly that rule's finding.
ex=$(mktemp)
printf 'R7 bad_r7.ml\n' > "$ex"
out2=$("$DPKIT" lint --format json --exempt "$ex" lint_corpus)
rm -f "$ex"
n2=$(printf '%s\n' "$out2" | grep -c '"rule"')
if [ "$n2" -ne 4 ] || printf '%s\n' "$out2" | grep -q '"rule":"R7"'; then
  echo "FAIL: R7 exemption did not suppress exactly the R7 finding"
  printf '%s\n' "$out2"
  exit 1
fi

if ! "$DPKIT" lint --exempt ../lint.exempt ..; then
  echo "FAIL: repository sources have lint findings (see above)"
  exit 1
fi

echo "lint: 5/5 corpus violations flagged, R7 exemptable, repository clean"
