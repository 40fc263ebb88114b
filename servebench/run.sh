#!/bin/sh
# Builds dpkit and the scenario program from this checkout, then runs the
# scenario with the given arguments, e.g.
#   sh servebench/run.sh --workload query_fresh --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build) and the compilers' temporary files to
# .bench_run/build-tmp, which is removed whether or not the build
# succeeds, so nothing is written outside the checkout; build logs go to
# stderr.
set -eu
build="${CARGO_TARGET_DIR:-.bench_build}"
tmp=.bench_run/build-tmp
mkdir -p "$tmp"
status=0
TMPDIR="$(cd "$tmp" && pwd)" dune build --root . --build-dir "$build" --cache=disabled \
  ./bin/dpkit.exe ./servebench/scenario.exe 1>&2 || status=$?
rm -rf "$tmp"
rmdir .bench_run 2>/dev/null || true
[ "$status" -eq 0 ] || exit "$status"
exec "$build/default/servebench/scenario.exe" --dpkit "$build/default/bin/dpkit.exe" "$@"
