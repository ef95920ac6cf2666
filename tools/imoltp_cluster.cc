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
// Flags (both subcommands):
//   --nodes=N               cluster size (default 3)
//   --warehouses-per-node=W (default 2; divisible by workers)
//   --workers-per-node=C    worker cores == partitions (default 2)
//   --orders-per-district=K initial orders (default 200)
//   --engine=NAME           default hyper. NOTE: node-death recovery
//                           REDOes the dead node's physical log;
//                           voltdb's command log is not physically
//                           replayable, so chaos runs should keep a
//                           physical-logging engine (see
//                           docs/distributed.md).
//   --txns=N                measured txns generated per node (2000)
//   --warmup=N              warm-up txns per node (400)
//   --multi-home-pct=P      % of NewOrder/Payment that cross nodes
//                           (run only; sweep uses its own series)
//   --batch=N               txns per node per scheduling round (32)
//   --net-latency=CYCLES    one-way message latency (26000)
//   --seed=S                cluster seed (1)
//   --json=FILE             write the report (- = stdout, the default)
//   --fingerprint           also print "fingerprint: <hex>" on stderr
//                           (scripts grep it for bit-identity checks)
//   --chaos-node-death=SPEC arm node.death: PROB, PROB@NTH or @NTH
//                           (e.g. @5 = the 5th (node,round) check)
//   --no-recover            leave dead nodes dead (skips the
//                           cross-node audit layers)
//   --sweep-pcts=A,B,...    sweep series (default 0,10,50,100)
//   --trace-sample=SPEC     distributed tracing: N or 1/N traces one in
//                           N transactions (1 = all, 0 = off). Zero
//                           observer effect: fingerprints are
//                           bit-identical with tracing off/on/sampled.
//   --trace-ring=N          full trace records kept for the timeline
//                           export / p99 composition (default 65536)
//   --timeline-out=FILE     write the whole-cluster Perfetto timeline
//                           (run only; implies --trace-sample=1 unless
//                           tracing was configured explicitly)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "dist/cluster.h"
#include "dist/cluster_json.h"
#include "dist/cluster_timeline.h"
#include "tools/imoltp_cli.h"

namespace {

using imoltp::Status;
using imoltp::dist::Cluster;
using imoltp::dist::ClusterConfig;
using imoltp::dist::ClusterSweepToJson;
using imoltp::dist::SweepPoint;

int Usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  std::fprintf(
      stderr,
      "usage: %s run|sweep [--nodes=N] [--warehouses-per-node=W]\n"
      "       [--workers-per-node=C] [--orders-per-district=K]\n"
      "       [--engine=NAME] [--txns=N] [--warmup=N]\n"
      "       [--multi-home-pct=P] [--batch=N] [--net-latency=CYC]\n"
      "       [--seed=S] [--json=FILE] [--fingerprint]\n"
      "       [--chaos-node-death=PROB[@NTH]] [--no-recover]\n"
      "       [--sweep-pcts=A,B,...] [--trace-sample=N|1/N]\n"
      "       [--trace-ring=N] [--timeline-out=FILE]\n",
      argv0);
  // Same choice inventories every other tool's --help prints, so the
  // valid spellings have one authority each.
  std::fprintf(stderr, "engines: %s\n",
               imoltp::engine::EngineKindChoices());
  std::fprintf(stderr,
               "per-node execution mode: serial (of: %s)\n",
               imoltp::core::ParallelModeChoices());
  std::fprintf(stderr, "fault points:");
  for (const char* p : imoltp::fault::kAllFaultPoints) {
    std::fprintf(stderr, " %s", p);
  }
  std::fprintf(stderr, " (this tool arms %s via --chaos-node-death)\n",
               imoltp::fault::kNodeDeath);
  return 2;
}

// --trace-sample grammar: "N" or "1/N" (both mean: trace one in N
// transactions); 0 disables tracing.
bool ParseTraceSample(const char* v, uint64_t* out, std::string* error) {
  const char* num = v;
  if (num[0] == '1' && num[1] == '/') num += 2;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(num, &end, 10);
  if (end == num || *end != '\0') {
    *error = std::string("bad --trace-sample value: ") + v +
             " (choices: N or 1/N, e.g. 1, 4, 1/16; 0 = off)";
    return false;
  }
  *out = n;
  return true;
}

bool ParsePcts(const std::string& spec, std::vector<int>* out,
               std::string* error) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    char* end = nullptr;
    const long v = std::strtol(entry.c_str(), &end, 10);
    if (end == entry.c_str() || *end != '\0' || v < 0 || v > 100) {
      *error = "bad --sweep-pcts entry: " + entry;
      return false;
    }
    out->push_back(static_cast<int>(v));
  }
  if (out->empty()) {
    *error = "--sweep-pcts= names no percentages";
    return false;
  }
  return true;
}

int WriteOut(const std::string& path, const std::string& doc) {
  if (path == "-" || path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    Usage(argv[0]);
    return 0;
  }
  if (cmd != "run" && cmd != "sweep") {
    return Usage(argv[0], "unknown subcommand: " + cmd +
                              " (choices: run sweep)");
  }

  ClusterConfig cfg;
  std::string engine_name = "hyper";
  std::string json_path = "-";
  std::string sweep_spec = "0,10,50,100";
  std::string timeline_path;
  bool print_fingerprint = false;
  bool trace_flag_set = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    auto parse_int = [&](const char* v, const char* flag, int lo, int hi,
                         int* out) {
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < lo || n > hi) {
        std::fprintf(stderr, "%s: bad value for %s: %s\n", argv[0], flag,
                     v);
        return false;
      }
      *out = static_cast<int>(n);
      return true;
    };
    if (const char* v = value("--nodes=")) {
      if (!parse_int(v, "--nodes", 1, 64, &cfg.nodes)) return 2;
    } else if (const char* v = value("--warehouses-per-node=")) {
      if (!parse_int(v, "--warehouses-per-node", 1, 1 << 12,
                     &cfg.warehouses_per_node)) {
        return 2;
      }
    } else if (const char* v = value("--workers-per-node=")) {
      if (!parse_int(v, "--workers-per-node", 1, 64,
                     &cfg.workers_per_node)) {
        return 2;
      }
    } else if (const char* v = value("--orders-per-district=")) {
      if (!parse_int(v, "--orders-per-district", 1, 1 << 20,
                     &cfg.orders_per_district)) {
        return 2;
      }
    } else if (const char* v = value("--engine=")) {
      engine_name = v;
    } else if (const char* v = value("--txns=")) {
      cfg.txns_per_node = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--warmup=")) {
      cfg.warmup_per_node = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--multi-home-pct=")) {
      if (!parse_int(v, "--multi-home-pct", 0, 100,
                     &cfg.multi_home_pct)) {
        return 2;
      }
    } else if (const char* v = value("--batch=")) {
      if (!parse_int(v, "--batch", 1, 1 << 16, &cfg.batch_per_round)) {
        return 2;
      }
    } else if (const char* v = value("--net-latency=")) {
      cfg.net.latency_cycles = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      if (*v == '\0') {
        return Usage(argv[0], "--json= needs a file path (or -)");
      }
      json_path = v;
    } else if (arg == "--fingerprint") {
      print_fingerprint = true;
    } else if (const char* v = value("--chaos-node-death=")) {
      // Same PROB[@NTH] grammar as imoltp_run's --chaos-points values.
      std::vector<std::pair<std::string, imoltp::fault::FaultPointConfig>>
          parsed;
      std::string error;
      if (!imoltp::tools::ParseChaosPoints(
              std::string(imoltp::fault::kNodeDeath) + "=" + v, &parsed,
              &error)) {
        return Usage(argv[0], error);
      }
      cfg.chaos.enabled = true;
      cfg.chaos.probability = parsed[0].second.probability;
      cfg.chaos.nth_hit = parsed[0].second.nth_hit;
    } else if (arg == "--no-recover") {
      cfg.chaos.recover = false;
    } else if (const char* v = value("--sweep-pcts=")) {
      sweep_spec = v;
    } else if (const char* v = value("--trace-sample=")) {
      uint64_t sample = 0;
      std::string error;
      if (!ParseTraceSample(v, &sample, &error)) {
        return Usage(argv[0], error);
      }
      cfg.trace.enabled = sample > 0;
      cfg.trace.sample = sample;
      trace_flag_set = true;
    } else if (const char* v = value("--trace-ring=")) {
      int ring = 0;
      if (!parse_int(v, "--trace-ring", 1, 1 << 24, &ring)) return 2;
      cfg.trace.ring_capacity = static_cast<size_t>(ring);
    } else if (const char* v = value("--timeline-out=")) {
      if (*v == '\0') {
        return Usage(argv[0], "--timeline-out= needs a file path");
      }
      timeline_path = v;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      return Usage(argv[0], "unknown flag: " + arg);
    }
  }

  // A requested timeline needs traces to draw; default to tracing
  // everything unless the user dialed the sample themselves.
  if (!timeline_path.empty() && !trace_flag_set) {
    cfg.trace.enabled = true;
    cfg.trace.sample = 1;
  }

  if (!imoltp::engine::ParseEngineKind(engine_name, &cfg.engine_kind)) {
    return Usage(argv[0],
                 "unknown engine: " + engine_name + " (choices: " +
                     imoltp::engine::EngineKindChoices() + ")");
  }
  if (cfg.warehouses_per_node % cfg.workers_per_node != 0) {
    return Usage(argv[0],
                 "--warehouses-per-node must be divisible by "
                 "--workers-per-node");
  }

  if (cmd == "run") {
    Cluster cluster(cfg);
    Status s = cluster.Create();
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
    if (print_fingerprint) {
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
      const int rc = WriteOut(
          timeline_path, imoltp::dist::ClusterTimelineToJson(cluster));
      if (rc != 0) return rc;
    }
    const int rc =
        WriteOut(json_path, imoltp::dist::ClusterReportToJson(&cluster));
    if (rc != 0) return rc;
    return cluster.result().invariants.ok ? 0 : 1;
  }

  // sweep: one full cluster per percentage, everything else fixed.
  if (!timeline_path.empty()) {
    return Usage(argv[0], "--timeline-out only applies to `run`");
  }
  std::vector<int> pcts;
  std::string error;
  if (!ParsePcts(sweep_spec, &pcts, &error)) return Usage(argv[0], error);

  std::vector<SweepPoint> points;
  bool all_ok = true;
  for (int pct : pcts) {
    ClusterConfig point_cfg = cfg;
    point_cfg.multi_home_pct = pct;
    Cluster cluster(point_cfg);
    Status s = cluster.Create();
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
  const int rc = WriteOut(json_path, ClusterSweepToJson(cfg, points));
  if (rc != 0) return rc;
  return all_ok ? 0 : 1;
}
