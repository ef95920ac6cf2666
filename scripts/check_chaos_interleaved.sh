#!/usr/bin/env bash
# Interleaved chaos campaign: crash→recover→verify cycles in which the
# workers' transactions overlap at operation boundaries
# (--mode=interleaved), with fuzzy checkpointing, WAL truncation,
# torn-page injection and spurious lock conflicts armed. For each engine
# the campaign runs twice and must exit 0 both times with the same
# fingerprint: the interleaving repeats from the seed. At least one
# cycle must also have truncated log records and replayed strictly
# fewer records than the lifetime log — proof the checkpoint actually
# short-circuited replay.
#
# --seed=N picks the campaign seed (default 17); a loop over seeds
# repeats the campaign under other schedules.
#
# usage: check_chaos_interleaved.sh [--seed=N] IMOLTP_CHAOS [OUT_DIR]
#                                   [WORKLOAD] [ENGINES...]
set -euo pipefail

seed=17
if [ "$#" -gt 0 ] && [ "${1#--seed=}" != "$1" ]; then
  seed=${1#--seed=}
  shift
fi
if [ "$#" -lt 1 ] || ! [[ "$seed" =~ ^[0-9]+$ ]]; then
  echo "usage: $0 [--seed=N] IMOLTP_CHAOS [OUT_DIR] [WORKLOAD]" \
       "[ENGINES...]" >&2
  exit 2
fi

imoltp_chaos=$1
outdir=${2:-$(mktemp -d)}
mkdir -p "$outdir"
workload=${3:-tpcb}
shift $(( $# > 3 ? 3 : $# ))
engines=("${@:-}")
if [ "${#engines[@]}" -eq 0 ] || [ -z "${engines[0]}" ]; then
  engines=(shore-mt dbms-d voltdb hyper dbms-m)
fi

for engine in "${engines[@]}"; do
  reports=()
  for run in 1 2; do
    report="$outdir/chaos_interleaved_${engine}_${workload}_s${seed}_${run}.json"
    "$imoltp_chaos" --engine="$engine" --workload="$workload" \
        --mode=interleaved --cycles=3 --workers=2 \
        --txns=200 --warmup=20 --seed="$seed" --retry=3 \
        --checkpoint-every=16 --checkpoint-pages=8 \
        --chaos-points=crash.post_commit=0.002,ckpt.torn_page=0.5,lock.conflict=0.02 \
        --json="$report"
    reports+=("$report")
  done

  python3 - "${reports[@]}" "$engine" "$seed" <<'EOF'
import json, sys
first, second = (json.load(open(p)) for p in sys.argv[1:3])
engine = f"{sys.argv[3]} seed {sys.argv[4]}"
for doc in (first, second):
    assert doc["schema"] == "imoltp.chaos.v2", doc["schema"]
    assert doc["ok"], f"{engine}: campaign reported violations"
assert first["fingerprint"] == second["fingerprint"], (
    f"{engine}: fingerprints differ across runs "
    f"({first['fingerprint']} vs {second['fingerprint']})")
truncated_cycles = [
    c for c in first["cycles"]
    if c["truncated_records"] > 0
    and c["recovery"]["replayed_records"] < c["appended_records"]
]
assert truncated_cycles, (
    f"{engine}: no cycle replayed fewer records than the lifetime log "
    "(checkpoint truncation never kicked in)")
print(f"{engine}, {first['options']['workload']}: "
      f"{len(first['cycles'])} cycle(s) consistent, "
      f"{len(truncated_cycles)} with truncated replay, "
      f"fingerprint {first['fingerprint']} repeated")
EOF
done
