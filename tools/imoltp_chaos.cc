// imoltp_chaos — seeded crash → recover → verify campaigns. Each cycle
// runs a workload with armed fault points, rebuilds a fresh engine from
// whatever stable log survived, and audits the workload's consistency
// invariants (TPC-B balance conservation, TPC-C YTD and order-line
// conservation) on the recovered database. See docs/robustness.md.
//
//   imoltp_chaos --engine=hyper --workload=tpcb
//       --chaos-points=crash.mid_commit=@120 --cycles=3
//   imoltp_chaos --engine=dbms-m --workload=tpcc
//       --chaos-points=crash.post_commit=@400,log.torn_record=0.01
//       --json=-
//
// Flags:
//   --engine=shore-mt|dbms-d|voltdb|hyper|dbms-m      (default voltdb)
//   --workload=tpcb|tpcc     (default tpcb)
//   --cycles=N               crash→recover→verify cycles (default 3)
//   --workers=N              worker threads == partitions (default 2)
//   --txns=N                 measured transactions per worker
//   --warmup=N               warm-up transactions per worker
//   --seed=N                 campaign seed (injector + workload)
//   --mode=serial|interleaved  worker interleaving (default serial)
//   --chaos-points=SPEC      NAME=PROB[@NTH],... points to arm
//   --retry=N --retry-backoff=N --retry-cap=N     abort retry policy
//   --db=SIZE                tpcb nominal size (default 1MB)
//   --warehouses=N           tpcc scale (default 4)
//   --orders=N               tpcc initial orders per district
//   --log-buffer=SIZE        per-worker WAL ring (default 64KB)
//   --checkpoint-every=N     enable fuzzy checkpointing, one every N
//                            worker-0 transaction ticks
//   --checkpoint-pages=N     fuzzy capture rate (pages per tick)
//   --checkpoint-retain=N    complete checkpoints kept on the device
//   --json=FILE              campaign report ("-" = stdout)
//
// Exit codes: 0 = all invariants held in every cycle, 1 = a violation
// (details on stderr), 2 = usage or harness error.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

using namespace imoltp;

namespace {

int Usage(const char* argv0, const std::string& error) {
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  }
  // The fault-point list comes from the canonical table, so a point
  // added in fault_injector.h shows up here without a second edit.
  std::string points;
  for (const char* p : fault::kAllFaultPoints) {
    if (!points.empty()) {
      points += points.size() % 64 < 48 ? " " : "\n              ";
    }
    points += p;
  }
  std::fprintf(stderr,
               "usage: %s [--engine=E] [--workload=tpcb|tpcc] "
               "[--cycles=N]\n"
               "          [--workers=N] [--txns=N] [--warmup=N] "
               "[--seed=N]\n"
               "          [--mode=serial|interleaved]\n"
               "          [--chaos-points=NAME=PROB[@NTH],...]\n"
               "          [--retry=N] [--retry-backoff=N] "
               "[--retry-cap=N]\n"
               "          [--db=SIZE] [--warehouses=N] [--orders=N]\n"
               "          [--log-buffer=SIZE] [--checkpoint-every=N]\n"
               "          [--checkpoint-pages=N] "
               "[--checkpoint-retain=N]\n"
               "          [--json=FILE]\n"
               "engines: %s\n"
               "fault points: %s\n",
               argv0, engine::EngineKindChoices(), points.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fault::ChaosOptions opt;
  opt.workload = "tpcb";
  std::string engine_name = "voltdb";
  std::string mode = "serial";
  std::string json_path;
  std::string error;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    auto positive_int = [&](const char* v, const char* flag, int* out) {
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0 || n > 1 << 20) {
        error = std::string("bad value for ") + flag + ": " + v;
        return false;
      }
      *out = static_cast<int>(n);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0], "");
      return 0;
    } else if (const char* v = value("--engine=")) {
      engine_name = v;
    } else if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--cycles=")) {
      if (!positive_int(v, "--cycles", &opt.cycles)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--workers=")) {
      if (!positive_int(v, "--workers", &opt.workers)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--txns=")) {
      opt.measure_txns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--warmup=")) {
      opt.warmup_txns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--mode=")) {
      mode = v;
    } else if (const char* v = value("--chaos-points=")) {
      if (!tools::ParseChaosPoints(v, &opt.points, &error)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--retry=")) {
      if (!positive_int(v, "--retry", &opt.retry.max_attempts)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--retry-backoff=")) {
      opt.retry.backoff_cycles = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--retry-cap=")) {
      if (!positive_int(v, "--retry-cap",
                        &opt.retry.max_inflight_retries)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--db=")) {
      opt.tpcb_nominal_bytes = tools::ParseSize(v);
      if (opt.tpcb_nominal_bytes == 0) {
        return Usage(argv[0], std::string("bad value for --db: ") + v);
      }
    } else if (const char* v = value("--warehouses=")) {
      if (!positive_int(v, "--warehouses", &opt.tpcc_warehouses)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--orders=")) {
      if (!positive_int(v, "--orders", &opt.tpcc_orders_per_district)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--checkpoint-every=")) {
      int every = 0;
      if (!positive_int(v, "--checkpoint-every", &every)) {
        return Usage(argv[0], error);
      }
      opt.checkpoint.enabled = true;
      opt.checkpoint.every_n_ticks = static_cast<uint64_t>(every);
    } else if (const char* v = value("--checkpoint-pages=")) {
      if (!positive_int(v, "--checkpoint-pages",
                        &opt.checkpoint.pages_per_step)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--checkpoint-retain=")) {
      if (!positive_int(v, "--checkpoint-retain",
                        &opt.checkpoint.retain)) {
        return Usage(argv[0], error);
      }
    } else if (const char* v = value("--log-buffer=")) {
      const uint64_t bytes = tools::ParseSize(v);
      if (bytes == 0 || bytes > (1u << 30)) {
        return Usage(argv[0],
                     std::string("bad value for --log-buffer: ") + v);
      }
      opt.log_buffer_bytes = static_cast<uint32_t>(bytes);
    } else if (const char* v = value("--json=")) {
      if (*v == '\0') {
        return Usage(argv[0], "--json= needs a file path (or -)");
      }
      json_path = v;
    } else {
      return Usage(argv[0], "unknown flag: " + arg);
    }
  }

  if (!tools::ParseEngine(engine_name, &opt.engine)) {
    return Usage(argv[0], "unknown engine: " + engine_name +
                              " (choices: " +
                              engine::EngineKindChoices() + ")");
  }
  if (!core::ParseParallelMode(mode, &opt.mode)) {
    return Usage(argv[0], "unknown mode: " + mode + " (choices: " +
                              core::ParallelModeChoices() + ")");
  }

  std::fprintf(stderr, "chaos: %s / %s, %d cycle(s), seed %llu\n",
               engine_name.c_str(), opt.workload.c_str(), opt.cycles,
               static_cast<unsigned long long>(opt.seed));

  const auto result = fault::RunChaos(opt);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 result.status().ToString().c_str());
    return 2;
  }
  const fault::ChaosReport& report = *result;

  for (const fault::ChaosCycleResult& c : report.cycles) {
    std::fprintf(
        stderr,
        "cycle %d: committed %llu, aborts %llu%s%s, log %llu records"
        "%s, recovered %s%s\n",
        c.cycle, static_cast<unsigned long long>(c.committed),
        static_cast<unsigned long long>(c.breakdown.total),
        c.crash_point.empty() ? "" : ", crash at ",
        c.crash_point.c_str(),
        static_cast<unsigned long long>(c.log_records),
        c.dropped_records != 0 ? " (tail truncated)" : "",
        c.recovered.ok ? "consistent" : "INCONSISTENT",
        c.live_checked ? (c.live.ok ? ", live consistent"
                                    : ", live INCONSISTENT")
                       : "");
    if (c.checkpoints_completed > 0 || c.recovery.used_checkpoint) {
      std::fprintf(
          stderr,
          "  checkpoints %llu (torn pages injected %llu), truncated "
          "%llu of %llu appended records\n"
          "  recovery: %s, restored %llu page(s), index entries %llu, "
          "replayed %llu, undone %llu\n",
          static_cast<unsigned long long>(c.checkpoints_completed),
          static_cast<unsigned long long>(c.torn_pages_injected),
          static_cast<unsigned long long>(c.truncated_records),
          static_cast<unsigned long long>(c.appended_records),
          c.recovery.used_checkpoint ? "from checkpoint" : "full replay",
          static_cast<unsigned long long>(c.recovery.restored_pages),
          static_cast<unsigned long long>(c.recovery.index_entries),
          static_cast<unsigned long long>(c.recovery.replayed_records),
          static_cast<unsigned long long>(c.recovery.undone_records));
    }
    for (const std::string& v : c.recovered.violations) {
      std::fprintf(stderr, "  recovered: %s\n", v.c_str());
    }
    if (c.live_checked) {
      for (const std::string& v : c.live.violations) {
        std::fprintf(stderr, "  live: %s\n", v.c_str());
      }
    }
  }

  if (!json_path.empty()) {
    const std::string json = fault::ChaosReportToJson(opt, report);
    const Status s = obs::WriteJsonFile(json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
      return 2;
    }
    if (json_path != "-") {
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
  }

  if (!report.ok) {
    std::fprintf(stderr, "chaos: invariant violations detected\n");
    return 1;
  }
  std::fprintf(stderr, "chaos: all invariants held (fingerprint %016llx)\n",
               static_cast<unsigned long long>(report.fingerprint));
  return 0;
}
