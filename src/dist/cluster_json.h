#ifndef IMOLTP_DIST_CLUSTER_JSON_H_
#define IMOLTP_DIST_CLUSTER_JSON_H_

#include <string>
#include <vector>

#include "dist/cluster.h"

namespace imoltp::dist {

/// One point of a throughput-vs-%-multi-home sweep. The tracing
/// columns are zero unless the sweep ran with tracing enabled.
struct SweepPoint {
  int multi_home_pct = 0;
  ClusterResult result;
  uint64_t traced = 0;
  uint64_t orphaned = 0;
  double p99_critical_cycles = 0.0;   // multi-home critical-path p99
  double p99_net_order_share = 0.0;   // network+ordering share of it
};

/// Serializes one finished cluster run as the schema-versioned cluster
/// JSON document. Layout is diff-aware: everything under `cluster` is
/// deterministic (imoltp_diff compares it exactly) EXCEPT the subtrees
/// named `windows`, the throughput fields, and the cycle-valued parts
/// of `tracing` (`stages.cycles`, `critical_path.cycles`,
/// `p99_composition`, `p99_net_order_share`) — those carry cycle-model
/// values and get jitter tolerances (see the cluster rules in
/// tools/imoltp_diff.cc). Trace *counts* stay under the exact rule:
/// they are part of the determinism contract. The top-level `host`
/// object is the host cost of Run (Cluster::host_perf()).
std::string ClusterReportToJson(Cluster* cluster);

/// Serializes a multi-home sweep (one cluster run per percentage).
/// Deterministic outcome counts live under `sweep.series`, cycle-model
/// throughput under `sweep.perf` — separate prefixes so the diff rules
/// can hold the first exact while tolerating jitter in the second.
std::string ClusterSweepToJson(const ClusterConfig& base,
                               const std::vector<SweepPoint>& points);

}  // namespace imoltp::dist

#endif  // IMOLTP_DIST_CLUSTER_JSON_H_
