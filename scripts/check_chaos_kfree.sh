#!/usr/bin/env bash
# kFree chaos campaign: free-running (non-deterministic) crash→recover→
# verify cycles with fuzzy checkpointing, WAL truncation, and torn-page
# injection armed, in --invariant-only mode (free interleavings are not
# bit-reproducible, so the fingerprint gate is dropped; the conservation
# invariants are still audited on every recovered database). For each
# engine the campaign must exit 0, and at least one cycle must have
# truncated log records and replayed strictly fewer records than the
# lifetime log — proof the checkpoint actually short-circuited replay.
#
# --seed=N picks the campaign seed (default 17); a loop over seeds
# repeats the campaign under other schedules.
#
# usage: check_chaos_kfree.sh [--seed=N] IMOLTP_CHAOS [OUT_DIR] [WORKLOAD]
#                             [ENGINES...]
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
  report="$outdir/chaos_kfree_${engine}_${workload}_s${seed}.json"
  "$imoltp_chaos" --engine="$engine" --workload="$workload" \
      --mode=free --invariant-only --cycles=3 --workers=2 \
      --txns=200 --warmup=20 --seed="$seed" --retry=3 \
      --checkpoint-every=16 --checkpoint-pages=8 \
      --chaos-points=crash.post_commit=0.002,ckpt.torn_page=0.5,lock.conflict=0.02 \
      --json="$report"

  python3 - "$report" "$engine" "$seed" <<'EOF'
import json, sys
report, engine = sys.argv[1], f"{sys.argv[2]} seed {sys.argv[3]}"
doc = json.load(open(report))
assert doc["schema"] == "imoltp.chaos.v2", doc["schema"]
assert doc["ok"], f"{engine}: campaign reported violations"
truncated_cycles = [
    c for c in doc["cycles"]
    if c["truncated_records"] > 0
    and c["recovery"]["replayed_records"] < c["appended_records"]
]
assert truncated_cycles, (
    f"{engine}: no cycle replayed fewer records than the lifetime log "
    "(checkpoint truncation never kicked in)")
print(f"{engine}, {doc['options']['workload']}: "
      f"{len(doc['cycles'])} cycle(s) consistent, "
      f"{len(truncated_cycles)} with truncated replay")
EOF
done
