#!/usr/bin/env bash
# One-shot local static-analysis gate (DESIGN.md §3.9) — the same checks
# the CI static-analysis job runs, degraded gracefully when a tool is not
# installed (the container ships GCC only; Clang adds the thread-safety
# analysis and clang-tidy/clang-format add their gates).
#
#   scripts/check.sh                 # build + tfx_analyze + fuzz smoke +
#                                    # tidy + format
#   scripts/check.sh --format-only   # just the format check
#   scripts/check.sh --base REF      # diff base for the format check
#                                    # (default: origin/main, then HEAD)
#
# Exit status is nonzero when any *available* check fails; missing tools
# are reported as SKIPPED and do not fail the gate.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-check}"
BASE=""
FORMAT_ONLY=0

while [ $# -gt 0 ]; do
  case "$1" in
    --format-only) FORMAT_ONLY=1 ;;
    --base) shift; BASE="$1" ;;
    --base=*) BASE="${1#--base=}" ;;
    *) echo "usage: $0 [--format-only] [--base REF]" >&2; exit 2 ;;
  esac
  shift
done

FAILED=0
note()  { printf '== %s\n' "$*"; }
skip()  { printf 'SKIPPED: %s\n' "$*"; }
fail()  { printf 'FAILED: %s\n' "$*"; FAILED=1; }

format_check() {
  if ! command -v clang-format >/dev/null 2>&1; then
    skip "clang-format not installed"
    return
  fi
  local base="$BASE"
  if [ -z "$base" ]; then
    if git -C "$ROOT" rev-parse --verify -q origin/main >/dev/null; then
      base=origin/main
    else
      base=HEAD
    fi
  fi
  note "clang-format (changed files vs $base)"
  local files
  files=$(git -C "$ROOT" diff --name-only --diff-filter=ACMR "$base" -- \
            '*.h' '*.cc' '*.cpp' | sed "s|^|$ROOT/|")
  if [ -z "$files" ]; then
    echo "no changed C++ files"
    return
  fi
  # shellcheck disable=SC2086
  if ! clang-format --dry-run -Werror $files; then
    fail "clang-format (run: clang-format -i <files>)"
  fi
}

if [ "$FORMAT_ONLY" = 1 ]; then
  format_check
  exit $FAILED
fi

# --- 1. Build, with the strictest compiler available -----------------------
# Clang adds -Wthread-safety -Werror=thread-safety (see CMakeLists.txt);
# both compilers enforce -Werror=unused-result over [[nodiscard]] Status.
CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
if command -v clang++ >/dev/null 2>&1; then
  note "build (clang++, thread-safety analysis armed)"
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER=clang++)
else
  note "build (g++ — thread-safety analysis needs clang++)"
fi
if ! cmake -B "$BUILD_DIR" -S "$ROOT" "${CMAKE_ARGS[@]}" >/dev/null; then
  fail "cmake configure"
  exit 1
fi
if ! cmake --build "$BUILD_DIR" -j"$(nproc)"; then
  fail "build"
  exit 1
fi
if ! command -v clang++ >/dev/null 2>&1; then
  skip "thread-safety analysis (install clang to run it locally)"
fi

# --- 2. tfx_analyze: token + semantic tiers, lock-order graph --------------
note "tfx_analyze (both tiers; graph: $BUILD_DIR/lock_order.dot)"
if ! "$BUILD_DIR/tools/tfx_analyze" -p "$BUILD_DIR/compile_commands.json" \
     --root "$ROOT" --lock-graph "$BUILD_DIR/lock_order.dot"; then
  fail "tfx_analyze"
fi

# --- 3. Fuzz smoke: replay corpora, then ~30s of fuzzing if libFuzzer ------
note "fuzz corpora replay"
for t in frame_decoder section_reader graph_io; do
  if ! "$BUILD_DIR/fuzz/fuzz_$t" "$ROOT/tests/corpus/$t"; then
    fail "fuzz corpus replay ($t)"
  fi
done
if command -v clang++ >/dev/null 2>&1; then
  note "fuzz smoke (libFuzzer, 10s per target)"
  FUZZ_DIR="$BUILD_DIR-fuzz"
  if cmake -B "$FUZZ_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
       -DCMAKE_CXX_COMPILER=clang++ -DTFX_LIBFUZZER=ON \
       -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-sanitize-recover=all" \
       >/dev/null &&
     cmake --build "$FUZZ_DIR" -j"$(nproc)" \
       --target fuzz_frame_decoder fuzz_section_reader fuzz_graph_io; then
    for t in frame_decoder section_reader graph_io; do
      if ! "$FUZZ_DIR/fuzz/fuzz_$t" -seed=1 -max_total_time=10 \
           -max_len=65536 "$ROOT/tests/corpus/$t"; then
        fail "fuzz smoke ($t)"
      fi
    done
  else
    fail "fuzz smoke build"
  fi
else
  skip "coverage-guided fuzz smoke (install clang for libFuzzer)"
fi

# --- 4. clang-tidy ----------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy (curated zero-warning baseline)"
  RUNNER=""
  for c in run-clang-tidy run-clang-tidy-18 run-clang-tidy-17 \
           run-clang-tidy-16 run-clang-tidy-15 run-clang-tidy-14; do
    if command -v "$c" >/dev/null 2>&1; then RUNNER="$c"; break; fi
  done
  REPORT="$BUILD_DIR/clang-tidy-report.txt"
  if [ -n "$RUNNER" ]; then
    "$RUNNER" -p "$BUILD_DIR" -quiet \
      "$ROOT/(src|tools|tests|bench|examples)/.*" >"$REPORT" 2>/dev/null
  else
    # Fallback: sequential clang-tidy over the compilation database.
    git -C "$ROOT" ls-files '*.cc' '*.cpp' | sed "s|^|$ROOT/|" |
      xargs -r clang-tidy -p "$BUILD_DIR" --quiet >"$REPORT" 2>/dev/null
  fi
  if grep -qE "warning:|error:" "$REPORT"; then
    grep -E "warning:|error:" "$REPORT" | head -50
    fail "clang-tidy (full report: $REPORT)"
  else
    echo "clang-tidy clean"
  fi
else
  skip "clang-tidy not installed"
fi

# --- 5. Format check --------------------------------------------------------
format_check

[ $FAILED = 0 ] && note "all available checks passed"
exit $FAILED
