#!/usr/bin/env bash
# Runs every figure/ablation binary in bench/, teeing the combined
# output to bench_output.txt (the numbers EXPERIMENTS.md quotes). When
# a JSON directory is given, each figure also exports a
# schema-versioned JSON report there for archival and imoltp_diff
# regression comparison (docs/OBSERVABILITY.md).
#
#   scripts/run_all_bench.sh [-jN] [build-dir] [json-dir]
#
#   scripts/run_all_bench.sh                    # build/, no JSON export
#   scripts/run_all_bench.sh build reports/     # archive JSON per figure
#   scripts/run_all_bench.sh -j4 build reports/ # 4 figures at a time
#
# With -jN, up to N figure binaries run concurrently on spare host
# cores. Each binary's output goes to a temp file and is concatenated
# in name order afterwards, so bench_output.txt lists the binaries in
# the same order regardless of N. Its numbers are not byte-stable: the
# cache simulator models host heap addresses, which ASLR moves, so two
# campaigns differ in most simulated figures (ROADMAP item 1). A
# per-binary wall-clock table (slowest
# first) goes to stderr at the end — stderr, not the output file,
# because timings are non-deterministic.
#
# The same wall-clock table is also written as a timing-only bench
# matrix (bench_times.json, bench_schema_version 1: one cell per
# binary, id "bench/<name>", wall_seconds) so two runs — or a run and
# a committed baseline — diff through imoltp_diff:
#
#   imoltp_diff --max-regress=0.5 old/bench_times.json bench_times.json

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=1
if [[ "${1:-}" =~ ^-j([0-9]+)$ ]]; then
  JOBS="${BASH_REMATCH[1]}"
  shift
fi
BUILD="${1:-build}"
JSON_DIR="${2:-}"

if [ ! -d "$BUILD/bench" ]; then
  echo "error: $BUILD/bench not found — build first:" >&2
  echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 2
fi

if [ -n "$JSON_DIR" ]; then
  mkdir -p "$JSON_DIR"
  export IMOLTP_JSON_DIR="$JSON_DIR"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Per-binary wall-clock bookkeeping. Timings are inherently
# non-deterministic, so the summary table goes to stderr only —
# bench_output.txt stays byte-stable run over run.
note_time() {  # note_time NAME START_NS END_NS
  printf '%s %s\n' "$1" "$(( ($3 - $2) / 1000000 ))" >> "$TMP/times"
}

print_times() {
  [ -f "$TMP/times" ] || return 0
  {
    echo
    echo "wall-clock per benchmark (ms):"
    sort -k2 -n -r "$TMP/times" | awk '{printf "  %-28s %8d\n", $1, $2}'
    awk '{s += $2} END {printf "  %-28s %8d\n", "TOTAL", s}' "$TMP/times"
  } >&2
  emit_times_json
}

# Timing-only bench matrix for imoltp_diff: the wall-clock table as
# bench_schema_version-1 JSON. Goes next to the archived reports when a
# JSON directory was given, else into the working directory.
emit_times_json() {
  local out="bench_times.json"
  [ -n "$JSON_DIR" ] && out="$JSON_DIR/bench_times.json"
  sort "$TMP/times" | awk -v label="run_all_bench" '
    BEGIN {
      printf "{\"bench_schema_version\":1,\"label\":\"%s\",\"cells\":[", label
    }
    {
      if (NR > 1) printf ","
      printf "{\"id\":\"bench/%s\",\"wall_seconds\":%.3f}", $1, $2 / 1000.0
    }
    END { print "]}" }
  ' > "$out"
  echo "wrote $out" >&2
}

if [ "$JOBS" -le 1 ]; then
  for b in "$BUILD"/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "===== $(basename "$b") ====="
    t0="$(date +%s%N)"
    "$b"
    note_time "$(basename "$b")" "$t0" "$(date +%s%N)"
    echo
  done 2>&1 | tee bench_output.txt
  print_times
  exit 0
fi

bins=()
for b in "$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  bins+=("$b")
done

running=0
fail=0
for b in "${bins[@]}"; do
  if [ "$running" -ge "$JOBS" ]; then
    wait -n || fail=1
    running=$((running - 1))
  fi
  {
    echo "===== $(basename "$b") ====="
    t0="$(date +%s%N)"
    "$b"
    note_time "$(basename "$b")" "$t0" "$(date +%s%N)"
    echo
  } > "$TMP/$(basename "$b").out" 2>&1 &
  running=$((running + 1))
done
while [ "$running" -gt 0 ]; do
  wait -n || fail=1
  running=$((running - 1))
done

cat "$TMP"/*.out | tee bench_output.txt
print_times
exit "$fail"
