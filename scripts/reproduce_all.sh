#!/bin/sh
# Reproduces the whole evaluation: builds, runs the test suite, then every
# figure bench. Outputs land in test_output.txt and bench_output.txt at
# the repository root. Expect ~20-40 minutes on a laptop.
#
# STATS_DIR=dir additionally passes --stats_json=dir/<bench>.stats.json to
# every figure binary, producing one machine-readable per-engine counter/
# latency artifact per bench (DESIGN.md §3.8) — the perf trajectory of the
# whole reproduction.
set -e
cd "$(dirname "$0")/.."
STATS_DIR="${STATS_DIR:-}"
if [ -n "$STATS_DIR" ]; then mkdir -p "$STATS_DIR"; fi
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
(for b in build/bench/*; do
   if [ -x "$b" ] && [ -f "$b" ]; then
     STATS_FLAG=""
     if [ -n "$STATS_DIR" ]; then
       STATS_FLAG="--stats_json=$STATS_DIR/$(basename "$b").stats.json"
     fi
     echo "=== $b $STATS_FLAG ==="
     "$b" $STATS_FLAG
   fi
 done) 2>&1 | tee bench_output.txt
