// imoltp_trace — inspect / replay / sweep driver for the binary trace
// subsystem (docs/tracing.md). A trace, recorded with
// `imoltp_run --trace-out=FILE`, captures one live run's simulated
// reference stream; replays re-simulate it through arbitrary machine
// configurations without re-running the engine.
//
//   imoltp_run --engine=voltdb --trace-out=run.trace
//   imoltp_trace info run.trace
//   imoltp_trace replay run.trace --config=llc=2MB,pf=off --json=-
//   imoltp_trace sweep run.trace --cell=no-pf:pf=off --threads=8
//
// Subcommands:
//   info     print the trace header and validate the whole stream
//   replay   re-simulate one trace; --config=SPEC overrides the
//            recorded machine (see below), --json=FILE emits a report
//   sweep    fan one trace across N configs on N threads; each
//            --cell=LABEL:SPEC adds a cell (default: an 8-cell
//            cache/prefetcher ablation grid)
//
// Config spec: comma-separated key=value overrides applied to the
// recorded configuration. Keys: l1i l1d l2 llc (sizes), l2_assoc
// llc_assoc, line, pf=on|off, pfdeg=N, tlb=on|off, base_cpi,
// cpi_floor, clock. Empty or "recorded" replays the header config.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "obs/report_json.h"
#include "trace/reader.h"
#include "trace/replay.h"

using namespace imoltp;

namespace {

int Usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
  std::fprintf(
      stderr,
      "usage: %s info FILE\n"
      "       %s replay FILE [--config=SPEC] [--json=FILE]\n"
      "       %s sweep FILE [--cell=LABEL:SPEC]... [--threads=N]\n"
      "record a FILE with imoltp_run --trace-out=FILE\n",
      argv0, argv0, argv0);
  return 2;
}

obs::RunInfo ReplayRunInfo(const trace::ReplayResult& result) {
  const trace::TraceMeta& meta = result.meta;
  obs::RunInfo info;
  info.engine = meta.engine;
  info.workload = meta.workload;
  info.db_bytes = meta.db_bytes;
  info.rows = meta.rows;
  info.warehouses = meta.warehouses;
  info.workers = meta.num_workers;
  info.warmup_txns = meta.warmup_txns;
  info.measure_txns = meta.measure_txns;
  info.seed = meta.seed;
  info.trace_file_id = meta.trace_id;
  info.replayed = true;
  return info;
}

int CmdInfo(const char* argv0, int argc, char** argv) {
  if (argc != 1) return Usage(argv0, "info takes exactly one FILE");
  trace::TraceReader reader;
  Status s = reader.Open(argv[0]);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  const trace::TraceMeta& meta = reader.meta();
  const mcsim::MachineConfig& mc = meta.recorded_config;
  std::printf("trace_id:      %s\n", meta.trace_id.c_str());
  std::printf("engine:        %s\n", meta.engine.c_str());
  std::printf("workload:      %s\n", meta.workload.c_str());
  std::printf("workers:       %d\n", meta.num_workers);
  std::printf("seed:          %llu\n",
              static_cast<unsigned long long>(meta.seed));
  std::printf("warmup_txns:   %llu  (per worker)\n",
              static_cast<unsigned long long>(meta.warmup_txns));
  std::printf("measure_txns:  %llu  (per worker)\n",
              static_cast<unsigned long long>(meta.measure_txns));
  std::printf("db_bytes:      %llu\n",
              static_cast<unsigned long long>(meta.db_bytes));
  std::printf("modules:       %zu\n", meta.modules.size());
  std::printf("machine:       L1I %lluKB  L1D %lluKB  L2 %lluKB  "
              "LLC %lluMB  pf=%s(%u)  tlb=%s\n",
              static_cast<unsigned long long>(mc.l1i.size_bytes >> 10),
              static_cast<unsigned long long>(mc.l1d.size_bytes >> 10),
              static_cast<unsigned long long>(mc.l2.size_bytes >> 10),
              static_cast<unsigned long long>(mc.llc.size_bytes >> 20),
              mc.model_prefetcher ? "on" : "off", mc.prefetch_degree,
              mc.model_tlb ? "on" : "off");

  // Decode the whole stream: validates every block CRC and record, and
  // yields the event/region counts the header does not store.
  trace::TraceEvent ev;
  bool done = false;
  while (true) {
    s = reader.Next(&ev, &done);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
      return 1;
    }
    if (done) break;
  }
  std::printf("events:        %llu\n",
              static_cast<unsigned long long>(reader.events_decoded()));
  std::printf("code regions:  %zu\n", reader.regions().size());
  std::printf("stream:        OK (all blocks CRC-verified)\n");
  return 0;
}

int CmdReplay(const char* argv0, int argc, char** argv) {
  std::string path, spec, json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--config=", 0) == 0) {
      spec = arg.substr(9);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0 || !path.empty()) {
      return Usage(argv0, "unknown replay argument: " + arg);
    } else {
      path = arg;
    }
  }
  if (path.empty()) return Usage(argv0, "replay needs a FILE");

  trace::TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  mcsim::MachineConfig config = reader.meta().recorded_config;
  s = trace::ApplyConfigSpec(spec, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 2;
  }

  trace::ReplayResult result;
  s = trace::ReplayTrace(path, config, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  if (!result.has_window) {
    std::fprintf(stderr, "%s: trace has no measurement window\n", argv0);
    return 1;
  }

  if (!json_path.empty()) {
    const std::string json = obs::RunReportToJson(
        ReplayRunInfo(result), result.window, config.cycle, nullptr,
        nullptr);
    s = obs::WriteJsonFile(json_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
      return 1;
    }
    return 0;
  }

  const std::string label = result.meta.engine + " / " +
                            result.meta.workload + " (replay" +
                            (spec.empty() ? "" : ", " + spec) + ")";
  core::ReportRow row{label, result.window};
  core::PrintIpc("Replay", {row});
  core::PrintStallsPerKInstr("Replay", {row});
  core::PrintStallsPerTxn("Replay", {row});
  core::PrintCycleAccounting("Replay", {row});
  return 0;
}

int CmdSweep(const char* argv0, int argc, char** argv) {
  std::string path;
  std::vector<std::pair<std::string, std::string>> specs;  // label, spec
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cell=", 0) == 0) {
      const std::string cell = arg.substr(7);
      const size_t colon = cell.find(':');
      if (colon == std::string::npos || colon == 0) {
        return Usage(argv0, "--cell needs LABEL:SPEC, got '" + cell + "'");
      }
      specs.emplace_back(cell.substr(0, colon), cell.substr(colon + 1));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
      if (threads < 1) return Usage(argv0, "bad --threads value");
    } else if (arg.rfind("--", 0) == 0 || !path.empty()) {
      return Usage(argv0, "unknown sweep argument: " + arg);
    } else {
      path = arg;
    }
  }
  if (path.empty()) return Usage(argv0, "sweep needs a FILE");
  if (specs.empty()) {
    specs = {{"recorded", ""},        {"no-pf", "pf=off"},
             {"no-tlb", "tlb=off"},   {"llc-2MB", "llc=2MB"},
             {"llc-8MB", "llc=8MB"},  {"llc-32MB", "llc=32MB"},
             {"l1d-16KB", "l1d=16KB"}, {"l1i-16KB", "l1i=16KB"}};
  }

  trace::TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0, s.ToString().c_str());
    return 1;
  }
  std::vector<trace::SweepCell> cells;
  for (const auto& [label, spec] : specs) {
    trace::SweepCell cell;
    cell.label = label;
    cell.config = reader.meta().recorded_config;
    s = trace::ApplyConfigSpec(spec, &cell.config);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: cell %s: %s\n", argv0, label.c_str(),
                   s.ToString().c_str());
      return 2;
    }
    cells.push_back(std::move(cell));
  }

  std::fprintf(stderr, "sweeping %zu configs over %s on %d threads ...\n",
               cells.size(), path.c_str(), threads);
  trace::RunSweep(path, &cells, threads);

  std::printf("%-12s %8s %12s %12s %10s %10s\n", "cell", "ipc",
              "instr/txn", "cycles/txn", "i-stall/kI", "d-stall/kI");
  int failures = 0;
  for (const trace::SweepCell& cell : cells) {
    if (!cell.status.ok()) {
      std::printf("%-12s FAILED: %s\n", cell.label.c_str(),
                  cell.status.ToString().c_str());
      ++failures;
      continue;
    }
    const mcsim::WindowReport& r = cell.result.window;
    std::printf("%-12s %8.4f %12.1f %12.1f %10.2f %10.2f\n",
                cell.label.c_str(), r.ipc, r.instructions_per_txn,
                r.cycles_per_txn,
                r.stalls_per_kinstr.instruction_total(),
                r.stalls_per_kinstr.data_total());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0], "missing subcommand");
  const std::string cmd = argv[1];
  if (cmd == "info") return CmdInfo(argv[0], argc - 2, argv + 2);
  if (cmd == "replay") return CmdReplay(argv[0], argc - 2, argv + 2);
  if (cmd == "sweep") return CmdSweep(argv[0], argc - 2, argv + 2);
  return Usage(argv[0], "unknown subcommand: " + cmd);
}
