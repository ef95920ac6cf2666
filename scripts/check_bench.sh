#!/usr/bin/env bash
# Bench-pipeline smoke check: runs a tiny imoltp_bench sweep, asserts
# that the matrix self-compares clean through imoltp_compare (exit 0),
# and that an injected refs/sec collapse trips the regression gate
# (exit non-zero). Exercises the full trajectory loop — run, serialize,
# parse, tolerance rules — in a few seconds; CI and ctest both run it
# (docs/OBSERVABILITY.md, "Benchmark trajectories").
#
# usage: check_bench.sh IMOLTP_BENCH IMOLTP_COMPARE [OUT_DIR]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 IMOLTP_BENCH IMOLTP_COMPARE [OUT_DIR]" >&2
  exit 2
fi

imoltp_bench=$1
imoltp_compare=$2
outdir=${3:-$(mktemp -d)}
mkdir -p "$outdir"

base="$outdir/BENCH_smoke.json"
"$imoltp_bench" --label=smoke --out="$base" \
                --engines=voltdb,hyper --workloads=tpcb \
                --modes=serial --workers=2 \
                --txns=300 --warmup=50 --seed=11 >/dev/null

# 1. A matrix must always be within tolerance of itself.
"$imoltp_compare" "$base" "$base" >/dev/null
echo "self-compare: OK"

# 2. A collapsed host throughput must fail the gate. The matrix is
# single-line JSON, so a textual substitution is exact.
regressed="$outdir/BENCH_smoke_regressed.json"
sed -E 's/"refs_per_sec":[0-9.eE+-]+/"refs_per_sec":1.0/g' \
    "$base" > "$regressed"
if "$imoltp_compare" "$base" "$regressed" >/dev/null; then
  echo "error: injected refs/sec regression was not detected" >&2
  exit 1
fi
echo "injected regression: detected (as it must be)"
