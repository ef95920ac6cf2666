// imoltp_cluster — drives the sharded scale-out layer (src/dist): N
// nodes, each a full engine + simulated machine owning a block of
// TPC-C warehouses, joined by an in-process message fabric with
// SLOG-style deterministic ordering (per-node sequencers, a global
// orderer for multi-home transactions).
//
//   imoltp_cluster run   [flags]          one cluster run -> JSON
//   imoltp_cluster sweep [flags]          throughput vs %-multi-home
//                                         (0/10/50/100 by default)
//
// `imoltp_cluster --help` lists every flag with its default.

#include <cstdio>
#include <string>
#include <vector>

#include "dist/cluster.h"
#include "dist/cluster_json.h"
#include "dist/cluster_timeline.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

namespace {

using imoltp::Status;
using imoltp::dist::Cluster;
using imoltp::dist::ClusterConfig;
using imoltp::dist::ClusterSweepToJson;
using imoltp::dist::SweepPoint;

// Writes one report through obs::WriteJsonFile; exit code 1 on failure.
int WriteOut(const char* argv0, const std::string& path,
             const std::string& doc) {
  const Status s = imoltp::obs::WriteJsonFile(path, doc);
  if (s.ok()) return 0;
  std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  imoltp::tools::ClusterFlags flags;
  const imoltp::tools::FlagSet cli =
      imoltp::tools::ClusterCommandLine(&flags);
  const std::string cmd = argc > 1 ? argv[1] : "";
  const bool has_cmd = cmd == "run" || cmd == "sweep";
  if (const int rc = cli.ParseMain(argc, argv, has_cmd ? 2 : 1); rc >= 0) {
    return rc;
  }
  if (!has_cmd) {
    return cli.Fail(argv[0], "missing subcommand (choices: run sweep)");
  }
  ClusterConfig& cfg = flags.cfg;
  const std::string& json_path = flags.json_path;
  const std::string& timeline_path = flags.timeline_path;

  // A requested timeline needs traces to draw; default to tracing
  // everything unless the user dialed the sample themselves.
  if (!timeline_path.empty() && !flags.trace_set) {
    cfg.trace.enabled = true;
    cfg.trace.sample = 1;
  }

  if (cmd == "run") {
    Cluster cluster(cfg);
    Status s = cluster.Create();
    if (s.code() == imoltp::StatusCode::kInvalidArgument) {
      return cli.Fail(argv[0], s.message());
    }
    if (!s.ok()) {
      std::fprintf(stderr, "%s: create: %s\n", argv[0],
                   s.message().c_str());
      return 1;
    }
    s = cluster.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: run: %s\n", argv[0],
                   s.message().c_str());
      return 1;
    }
    if (flags.fingerprint) {
      std::fprintf(stderr, "fingerprint: %016llx\n",
                   static_cast<unsigned long long>(
                       cluster.result().fingerprint));
    }
    if (!cluster.result().invariants.ok) {
      for (const std::string& v :
           cluster.result().invariants.violations) {
        std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
      }
    }
    if (!timeline_path.empty()) {
      const int rc =
          WriteOut(argv[0], timeline_path,
                   imoltp::dist::ClusterTimelineToJson(cluster));
      if (rc != 0) return rc;
    }
    const int rc = WriteOut(argv[0], json_path,
                            imoltp::dist::ClusterReportToJson(&cluster));
    if (rc != 0) return rc;
    return cluster.result().invariants.ok ? 0 : 1;
  }

  // sweep: one full cluster per percentage, everything else fixed.
  if (!timeline_path.empty()) {
    return cli.Fail(argv[0], "--timeline-out only applies to `run`");
  }
  std::vector<SweepPoint> points;
  bool all_ok = true;
  for (int pct : flags.sweep_pcts) {
    ClusterConfig point_cfg = cfg;
    point_cfg.multi_home_pct = pct;
    Cluster cluster(point_cfg);
    Status s = cluster.Create();
    if (s.code() == imoltp::StatusCode::kInvalidArgument) {
      return cli.Fail(argv[0], s.message());
    }
    if (s.ok()) s = cluster.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: sweep pct=%d: %s\n", argv[0], pct,
                   s.message().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "pct=%3d committed=%llu multi_home=%llu msgs=%llu "
                 "thpt=%.2f/Mcyc\n",
                 pct,
                 static_cast<unsigned long long>(
                     cluster.result().committed),
                 static_cast<unsigned long long>(
                     cluster.result().multi_home),
                 static_cast<unsigned long long>(
                     cluster.result().net.messages),
                 cluster.result().throughput_per_mcycle);
    all_ok = all_ok && cluster.result().invariants.ok;
    SweepPoint point;
    point.multi_home_pct = pct;
    point.result = cluster.result();
    if (cluster.tracer().enabled()) {
      point.traced = cluster.tracer().traced();
      point.orphaned = cluster.tracer().orphaned();
      point.p99_critical_cycles =
          cluster.tracer().critical_multi_home().p99();
      point.p99_net_order_share =
          cluster.tracer().TailComposition().net_order_share;
    }
    points.push_back(std::move(point));
  }
  const int rc =
      WriteOut(argv[0], json_path, ClusterSweepToJson(cfg, points));
  if (rc != 0) return rc;
  return all_ok ? 0 : 1;
}
