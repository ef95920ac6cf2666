#!/usr/bin/env bash
# Cross-process determinism of --mode=interleaved: runs the same seeded
# TPC-C cell twice, each in its own process, on an engine with 2PL
# (shore-mt) and one with MVCC (dbms-m), and requires equal retired
# instructions, commits and aborts by cause. Only miss-derived figures
# may differ between the two processes (the simulator hashes host
# addresses, which ASLR moves).
#
# usage: check_interleaved_repeat.sh IMOLTP_RUN [OUT_DIR]
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 IMOLTP_RUN [OUT_DIR]" >&2
  exit 2
fi

imoltp_run=$1
outdir=${2:-$(mktemp -d)}
mkdir -p "$outdir"

for engine in shore-mt dbms-m; do
  reports=()
  for run in 1 2; do
    report="$outdir/interleaved_${engine}_${run}.json"
    "$imoltp_run" --engine="$engine" --workload=tpcc --warehouses=2 \
        --workers=2 --warmup=100 --txns=400 --seed=7 \
        --mode=interleaved --json="$report" > /dev/null
    reports+=("$report")
  done

  python3 - "${reports[@]}" "$engine" <<'EOF'
import json, sys
first, second = (json.load(open(p)) for p in sys.argv[1:3])
engine = sys.argv[3]
for doc in (first, second):
    assert doc["host"]["parallel_mode"] == "interleaved", doc["host"]
for key in ("instructions", "transactions"):
    assert first["window"][key] == second["window"][key], (
        engine, key, first["window"][key], second["window"][key])
for key in ("committed", "aborts"):
    assert first["robustness"][key] == second["robustness"][key], (
        engine, key, first["robustness"][key], second["robustness"][key])
print(f"{engine}: instructions {first['window']['instructions']}, "
      f"committed {first['robustness']['committed']}, "
      f"aborts {first['robustness']['aborts']['total']} repeated")
EOF
done
