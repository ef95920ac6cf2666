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
// `imoltp_chaos --help` lists every flag with its default.
//
// Exit codes: 0 = all invariants held in every cycle, 1 = a violation
// (details on stderr), 2 = usage or harness error.

#include <cstdio>
#include <string>

#include "fault/chaos.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

using namespace imoltp;

int main(int argc, char** argv) {
  tools::ChaosFlags flags;
  const tools::FlagSet cli = tools::ChaosCommandLine(&flags);
  if (const int rc = cli.ParseMain(argc, argv); rc >= 0) return rc;
  const fault::ChaosOptions& opt = flags.opt;
  const std::string& json_path = flags.json_path;

  std::fprintf(stderr, "chaos: %s / %s, %d cycle(s), seed %llu\n",
               engine::EngineKindName(opt.engine), opt.workload.c_str(),
               opt.cycles, static_cast<unsigned long long>(opt.seed));

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
