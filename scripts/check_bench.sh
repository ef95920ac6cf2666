#!/usr/bin/env bash
# Bench-pipeline smoke check: runs a tiny imoltp_bench sweep and asserts
# that imoltp_diff gates bench matrices:
#   - the matrix self-compares clean (exit 0);
#   - an injected refs/sec collapse trips the regression gate (exit 1),
#     and the --json verdict names the failing cell metric;
#   - a bench matrix against a run report is a usage error (exit 2);
#   - --max-regress on two run reports is a usage error (exit 2);
#   - a report with a repeated object key is a parse error (exit 2);
#   - a tpcc-cluster cell reports the references its nodes simulated
#     and its peak RSS.
# Exercises the full trajectory loop — run, serialize, parse, tolerance
# rules — in a few seconds; CI and ctest both run it
# (docs/OBSERVABILITY.md, "Benchmark trajectories").
#
# usage: check_bench.sh IMOLTP_BENCH IMOLTP_DIFF [OUT_DIR]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 IMOLTP_BENCH IMOLTP_DIFF [OUT_DIR]" >&2
  exit 2
fi

imoltp_bench=$1
imoltp_diff=$2
outdir=${3:-$(mktemp -d)}
mkdir -p "$outdir"
golden="$(dirname "$0")/../tests/golden/regression_baseline.json"

# Runs imoltp_diff with the given arguments and fails the check unless
# it exits with the expected code.
expect_exit() {
  local want=$1 what=$2
  shift 2
  local got=0
  "$imoltp_diff" "$@" >/dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "error: $what: exit $got, want $want" >&2
    exit 1
  fi
  echo "$what: exit $got (as it must be)"
}

base="$outdir/BENCH_smoke.json"
"$imoltp_bench" --label=smoke --out="$base" \
                --engines=voltdb,hyper --workloads=tpcb \
                --modes=serial --workers=2 \
                --txns=300 --warmup=50 --seed=11 >/dev/null

# 1. A matrix must always be within tolerance of itself.
expect_exit 0 "self-compare" "$base" "$base"

# 2. A collapsed host throughput must fail the gate. The matrix is
# single-line JSON, so a textual substitution is exact.
regressed="$outdir/BENCH_smoke_regressed.json"
sed -E 's/"refs_per_sec":[0-9.eE+-]+/"refs_per_sec":1.0/g' \
    "$base" > "$regressed"
expect_exit 1 "injected regression" "$base" "$regressed"

# 3. The machine-readable verdict names the cell metric that failed.
verdict="$outdir/BENCH_smoke_verdict.json"
"$imoltp_diff" --json "$base" "$regressed" > "$verdict" || true
if ! grep -q '"verdict":"drift"' "$verdict" ||
   ! grep -qE '"path":"[^"]*\.refs_per_sec"' "$verdict"; then
  echo "error: --json verdict lacks drift on a .refs_per_sec path:" >&2
  cat "$verdict" >&2
  exit 1
fi
echo "json verdict: drift on .refs_per_sec"

# 4. Bench matrices and run reports are different kinds; bench-only
# flags do not apply to run reports.
expect_exit 2 "bench matrix vs run report" "$base" "$golden"
expect_exit 2 "--max-regress on run reports" --max-regress=0.5 \
            "$golden" "$golden"

# 5. A report with a repeated object key is a parse error: member lookup
# would pair the wrong entries.
duplicated="$outdir/regression_duplicated.json"
sed -E '0,/^\{/s//{"schema_version":8,/' "$golden" > "$duplicated"
expect_exit 2 "duplicate object key" "$golden" "$duplicated"

# 6. Cluster cells count the references of every node's machine and
# report the process's peak RSS.
cluster="$outdir/BENCH_smoke_cluster.json"
"$imoltp_bench" --label=smoke-cluster --out="$cluster" \
                --engines=hyper --workloads=tpcc-cluster \
                --workers=1 --warehouses=1 \
                --txns=100 --warmup=20 --seed=11 >/dev/null
python3 - "$cluster" <<'EOF'
import json, sys
cells = [c for c in json.load(open(sys.argv[1]))["cells"]
         if c["workload"] == "tpcc-cluster"]
assert cells, "no tpcc-cluster cell in the matrix"
for c in cells:
    assert c["simulated_refs"] > 0, f"{c['id']}: simulated_refs is 0"
    assert c["refs_per_sec"] > 0, f"{c['id']}: refs_per_sec is 0"
    assert c["peak_rss_bytes"] > 0, f"{c['id']}: peak_rss_bytes is 0"
    print(f"{c['id']}: {c['simulated_refs']} simulated refs, "
          f"peak RSS {c['peak_rss_bytes']} bytes")
EOF
