#ifndef IMOLTP_BENCH_BENCH_COMMON_H_
#define IMOLTP_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/report.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

namespace imoltp::bench {

/// All five analyzed systems, in the paper's figure order.
inline const std::vector<engine::EngineKind>& AllEngines() {
  static const std::vector<engine::EngineKind> kEngines = {
      engine::EngineKind::kShoreMt, engine::EngineKind::kDbmsD,
      engine::EngineKind::kVoltDb, engine::EngineKind::kHyPer,
      engine::EngineKind::kDbmsM};
  return kEngines;
}

/// The paper's database-size x-axis. The 10GB/100GB points use sparse
/// address-space tables (DESIGN.md, Substitutions); their resident-row
/// caps keep populate time reasonable while the working set stays far
/// beyond the 20MB LLC.
struct DbSizePoint {
  const char* label;
  uint64_t nominal_bytes;
  uint64_t max_resident_rows;
};

inline const std::vector<DbSizePoint>& DbSizes() {
  static const std::vector<DbSizePoint> kSizes = {
      {"1MB", 1ULL << 20, 2'000'000},
      {"10MB", 10ULL << 20, 2'000'000},
      {"10GB", 10ULL << 30, 1'000'000},
      {"100GB", 100ULL << 30, 2'000'000},
  };
  return kSizes;
}

/// Process-wide knobs shared by every figure binary, set once by
/// ParseBenchArgs in main(). Figures default to kSerial, the paper's
/// non-overlapping transactions; --mode=interleaved overlaps them at
/// operation boundaries. Both repeat from the seed.
struct BenchOptions {
  core::ParallelMode mode = core::ParallelMode::kSerial;
  double txn_scale = 1.0;
};

inline BenchOptions& Options() {
  static BenchOptions options;
  return options;
}

/// The figure binaries' flags.
inline tools::FlagSet FigureCommandLine(BenchOptions* o) {
  return {"",
          {tools::ModeFlag(&o->mode),
           tools::Custom("--txn-scale", "F",
                         "scale every warm-up and measurement window "
                         "(quick smoke runs)",
                         [o](const std::string& v, std::string* error) {
                           char* end = nullptr;
                           const double scale = std::strtod(v.c_str(), &end);
                           if (v.empty() || *end != '\0' || !(scale > 0)) {
                             *error = "want a positive number";
                             return false;
                           }
                           o->txn_scale = scale;
                           return true;
                         },
                         "1")},
          ""};
}

/// Parses a figure binary's argv; --help and usage errors exit.
inline void ParseBenchArgs(int argc, char** argv) {
  const int rc = FigureCommandLine(&Options()).ParseMain(argc, argv);
  if (rc >= 0) std::exit(rc);
}

inline uint64_t ScaleTxns(uint64_t txns) {
  const double scaled = static_cast<double>(txns) * Options().txn_scale;
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

inline core::ExperimentConfig DefaultConfig(engine::EngineKind kind) {
  core::ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.parallel_mode = Options().mode;
  cfg.warmup_txns = ScaleTxns(2000);
  cfg.measure_txns = ScaleTxns(6000);
  return cfg;
}

/// Smaller windows for heavy (100-row / TPC-C-scale) transactions.
inline core::ExperimentConfig HeavyTxnConfig(engine::EngineKind kind) {
  core::ExperimentConfig cfg = DefaultConfig(kind);
  cfg.warmup_txns = ScaleTxns(400);
  cfg.measure_txns = ScaleTxns(1500);
  return cfg;
}

/// Builds a populated runner, exiting (with the failure on stderr) if
/// database creation fails — figure binaries have no useful recovery.
inline std::unique_ptr<core::ExperimentRunner> MakeRunner(
    const core::ExperimentConfig& cfg, core::Workload* schema_source) {
  auto runner = core::ExperimentRunner::Create(cfg, schema_source);
  if (!runner.ok()) {
    std::fprintf(stderr, "ExperimentRunner::Create failed: %s\n",
                 runner.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(runner.value());
}

/// Runs one measurement window, exiting on failure.
inline mcsim::WindowReport RunWindow(core::ExperimentRunner& runner,
                                     core::Workload* workload) {
  auto report = runner.Run(workload);
  if (!report.ok()) {
    std::fprintf(stderr, "ExperimentRunner::Run failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return *report;
}

/// One-shot populate + run, exiting on failure.
inline mcsim::WindowReport RunOnce(const core::ExperimentConfig& cfg,
                                   core::Workload* workload) {
  auto report = core::RunExperiment(cfg, workload);
  if (!report.ok()) {
    std::fprintf(stderr, "RunExperiment failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return *report;
}

/// The standard per-figure sweep loop: one callback per engine, with
/// the progress line every figure used to hand-roll.
template <typename Fn>
inline void ForEachEngine(Fn&& fn) {
  for (engine::EngineKind kind : AllEngines()) {
    std::fprintf(stderr, "  running %s...\n",
                 engine::EngineKindName(kind));
    fn(kind);
  }
}

inline std::string Label(engine::EngineKind kind, const std::string& sub) {
  return std::string(engine::EngineKindName(kind)) + " " + sub;
}

/// When IMOLTP_JSON_DIR is set, dumps `rows` as one schema-versioned
/// JSON document to $IMOLTP_JSON_DIR/<name>.json so figure sweeps can
/// be archived and regression-diffed with imoltp_diff. No-op otherwise.
inline void ExportRowsJson(const char* name, const char* title,
                           const std::vector<core::ReportRow>& rows,
                           const mcsim::CycleModelParams& params = {}) {
  const char* dir = std::getenv("IMOLTP_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("schema_version", obs::kReportSchemaVersion);
  w.KeyValue("figure", name);
  w.KeyValue("title", title);
  w.Key("rows");
  w.BeginArray();
  for (const core::ReportRow& r : rows) {
    w.BeginObject();
    w.KeyValue("label", r.label);
    w.Key("window");
    obs::WindowReportToJson(w, r.report, params);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = std::string(dir) + "/" + name + ".json";
  const Status s = obs::WriteJsonFile(path, w.TakeString());
  if (!s.ok()) {
    std::fprintf(stderr, "ExportRowsJson: %s\n", s.ToString().c_str());
  } else {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

inline void PrintHeader(const char* figure, const char* caption) {
  std::printf("\n");
  std::printf(
      "==========================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf(
      "==========================================================\n");
}

}  // namespace imoltp::bench

#endif  // IMOLTP_BENCH_BENCH_COMMON_H_
