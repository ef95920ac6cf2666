#!/usr/bin/env bash
# Cluster determinism smoke: a 3-node deterministic TPC-C cluster run
# must be bit-identical across two same-seed invocations — equal
# fingerprints AND an imoltp_diff-clean report pair (the diff holds all
# deterministic sections exact and only tolerates the cycle-model
# sections, which inherit ASLR jitter from address-hashed caches). A
# small VoltDB cluster must fingerprint alike across two same-seed
# invocations as well (its command log records requests). The sweep
# document must also self-compare clean, so the cluster_sweep schema
# stays inside imoltp_diff's rule set.
#
# MODE=tracing exercises the distributed-tracing layer instead
# (docs/distributed.md, "Distributed tracing"):
#   - zero observer effect: same-seed fingerprints are bit-identical
#     with tracing off (--trace-sample=0), full (1), and sampled (4)
#   - the traced report self-diffs clean, and a perturbed
#     cluster.tracing.p99_net_order_share makes imoltp_diff exit 1
#   - --timeline-out emits a whole-cluster Perfetto timeline that
#     imoltp_timeline validate/info/render accept
#   - the network+ordering share of the p99 critical path rises
#     monotonically with --net-latency and with %-multi-home
#
# usage: check_cluster.sh IMOLTP_CLUSTER IMOLTP_DIFF [OUT_DIR] \
#                         [MODE] [IMOLTP_TIMELINE]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 IMOLTP_CLUSTER IMOLTP_DIFF [OUT_DIR]" \
       "[smoke|tracing] [IMOLTP_TIMELINE]" >&2
  exit 2
fi

imoltp_cluster=$1
imoltp_diff=$2
outdir=${3:-$(mktemp -d)}
mode=${4:-smoke}
imoltp_timeline=${5:-}
mkdir -p "$outdir"

flags=(--nodes=3 --warehouses-per-node=2 --workers-per-node=2
       --orders-per-district=50 --warmup=100 --txns=500
       --multi-home-pct=20 --seed=7)

# Prints the first "p99_net_order_share" value of a JSON file (the run
# report has exactly one, under cluster.tracing).
share_of() {
  grep -o '"p99_net_order_share": *[0-9.eE+-]*' "$1" |
    head -1 | sed 's/.*: *//'
}

# Asserts a whitespace-separated series is nondecreasing and strictly
# grew overall; $1 = label, rest = values.
assert_monotonic() {
  local label=$1
  shift
  echo "$label: $*"
  echo "$*" | awk '{
    for (i = 2; i <= NF; ++i) if ($i + 1e-9 < $(i-1)) exit 1
    if (!($NF > $1)) exit 1
  }' || { echo "FAIL: $label not monotonically increasing" >&2; exit 1; }
}

if [ "$mode" = "tracing" ]; then
  if [ -z "$imoltp_timeline" ]; then
    echo "usage: MODE=tracing needs IMOLTP_TIMELINE" >&2
    exit 2
  fi

  # 1. Zero observer effect: off / full / 1-in-4 sampled tracing must
  # leave the fingerprint untouched.
  for sample in 0 1 4; do
    "$imoltp_cluster" run "${flags[@]}" --trace-sample=$sample \
        --fingerprint --json="$outdir/traced_$sample.json" \
        2> "$outdir/traced_$sample.err"
  done
  fp_off=$(grep '^fingerprint:' "$outdir/traced_0.err")
  fp_full=$(grep '^fingerprint:' "$outdir/traced_1.err")
  fp_samp=$(grep '^fingerprint:' "$outdir/traced_4.err")
  if [ -z "$fp_off" ] || [ "$fp_off" != "$fp_full" ] ||
     [ "$fp_off" != "$fp_samp" ]; then
    echo "FAIL: tracing perturbed the fingerprint:" >&2
    echo "  off:     ${fp_off:-<missing>}" >&2
    echo "  full:    ${fp_full:-<missing>}" >&2
    echo "  sampled: ${fp_samp:-<missing>}" >&2
    exit 1
  fi
  echo "tracing observer-free: ${fp_off} (off/full/sampled)"

  # 2. The traced report self-diffs clean...
  "$imoltp_diff" "$outdir/traced_1.json" "$outdir/traced_1.json"

  # ...and a drifted p99 net+ordering share trips the tracing rules.
  share=$(share_of "$outdir/traced_1.json")
  perturbed=$(echo "$share" | awk '{ printf "%.12f", $1 + 0.2 }')
  sed "s/\"p99_net_order_share\": *$share/\"p99_net_order_share\": $perturbed/" \
      "$outdir/traced_1.json" > "$outdir/traced_perturbed.json"
  if "$imoltp_diff" "$outdir/traced_1.json" \
      "$outdir/traced_perturbed.json" > /dev/null 2>&1; then
    echo "FAIL: perturbed p99_net_order_share diffed clean" >&2
    exit 1
  fi
  echo "perturbed p99_net_order_share trips imoltp_diff (expected)"

  # 3. The whole-cluster timeline validates and renders.
  timeline="$outdir/cluster.timeline.json"
  "$imoltp_cluster" run "${flags[@]}" --trace-sample=1 \
      --timeline-out="$timeline" --json=/dev/null
  "$imoltp_timeline" validate "$timeline"
  "$imoltp_timeline" info "$timeline" > "$outdir/timeline_info.txt"
  "$imoltp_timeline" render "$timeline" > "$outdir/timeline_render.txt"
  grep -q '^kind=cluster' "$outdir/timeline_info.txt"
  grep -q 'cross-node messages' "$outdir/timeline_info.txt"

  # 4. Critical-path attribution responds to the network: the p99
  # net+ordering share must rise monotonically with message latency...
  shares=()
  for lat in 2000 26000 200000; do
    "$imoltp_cluster" run "${flags[@]}" --net-latency=$lat \
        --trace-sample=1 --json="$outdir/lat_$lat.json" 2> /dev/null
    shares+=("$(share_of "$outdir/lat_$lat.json")")
  done
  assert_monotonic "p99 net+order share vs net latency" "${shares[@]}"

  # ...and with the multi-home percentage (the sweep's perf column,
  # emitted in --sweep-pcts order).
  sweep="$outdir/traced_sweep.json"
  "$imoltp_cluster" sweep "${flags[@]}" --trace-sample=1 \
      --sweep-pcts=10,50,100 --json="$sweep" 2> /dev/null
  mapfile -t sweep_shares < <(
    grep -o '"p99_net_order_share": *[0-9.eE+-]*' "$sweep" |
      sed 's/.*: *//')
  assert_monotonic "p99 net+order share vs multi-home pct" \
      "${sweep_shares[@]}"
  exec "$imoltp_diff" "$sweep" "$sweep"
fi

run_a="$outdir/cluster_a.json"
run_b="$outdir/cluster_b.json"

"$imoltp_cluster" run "${flags[@]}" --fingerprint --json="$run_a" \
    2> "$outdir/cluster_a.err"
"$imoltp_cluster" run "${flags[@]}" --fingerprint --json="$run_b" \
    2> "$outdir/cluster_b.err"

fp_a=$(grep '^fingerprint:' "$outdir/cluster_a.err")
fp_b=$(grep '^fingerprint:' "$outdir/cluster_b.err")
if [ -z "$fp_a" ] || [ "$fp_a" != "$fp_b" ]; then
  echo "FAIL: same-seed cluster fingerprints differ:" >&2
  echo "  run a: ${fp_a:-<missing>}" >&2
  echo "  run b: ${fp_b:-<missing>}" >&2
  exit 1
fi
echo "cluster ${fp_a} (both runs)"

"$imoltp_diff" "$run_a" "$run_b"

# VoltDB's command log records each committed request: the records must
# hold the request's fields only, never host bytes, so two same-seed
# processes must fingerprint a VoltDB cluster alike too.
volt_flags=(--engine=voltdb --nodes=2 --warehouses-per-node=2
            --workers-per-node=2 --orders-per-district=30 --warmup=50
            --txns=300 --multi-home-pct=20 --seed=7)
for run in a b; do
  "$imoltp_cluster" run "${volt_flags[@]}" --fingerprint \
      --json=/dev/null 2> "$outdir/voltdb_$run.err"
done
fp_a=$(grep '^fingerprint:' "$outdir/voltdb_a.err")
fp_b=$(grep '^fingerprint:' "$outdir/voltdb_b.err")
if [ -z "$fp_a" ] || [ "$fp_a" != "$fp_b" ]; then
  echo "FAIL: same-seed VoltDB cluster fingerprints differ:" >&2
  echo "  run a: ${fp_a:-<missing>}" >&2
  echo "  run b: ${fp_b:-<missing>}" >&2
  exit 1
fi
echo "voltdb cluster ${fp_a} (both runs)"

sweep="$outdir/cluster_sweep.json"
"$imoltp_cluster" sweep "${flags[@]}" --sweep-pcts=0,50 --json="$sweep"
exec "$imoltp_diff" "$sweep" "$sweep"
