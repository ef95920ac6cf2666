#ifndef IMOLTP_TOOLS_IMOLTP_CLI_H_
#define IMOLTP_TOOLS_IMOLTP_CLI_H_

// Command-line surface of imoltp_run, extracted into a header so the
// unit tests can drive flag parsing and CSV emission directly instead
// of exec'ing the binary and scraping stdout.

#include <strings.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "mcsim/profiler.h"
#include "obs/report_json.h"

namespace imoltp::tools {

struct Flags {
  std::string engine = "voltdb";
  std::string workload = "micro";
  uint64_t db_bytes = 10ULL << 20;
  int rows = 1;
  int warehouses = 4;
  int workers = 1;
  uint64_t txns = 6000;
  uint64_t warmup = 2000;
  std::string index = "hash";
  bool compilation = true;
  uint64_t seed = 42;
  std::string mode = "serial";  // serial|interleaved
  bool csv = false;
  bool csv_header = false;
  bool list = false;
  std::string json_path;   // --json=FILE; "-" = stdout; empty = off
  std::string trace_out;   // --trace-out=FILE; empty = no capture

  // Time-resolved profiling (docs/OBSERVABILITY.md): sample the worker
  // cores' counters every N retire cycles (0 = off) and/or write a
  // Perfetto-loadable timeline. --timeline-out with no --sample-every
  // picks a default period so the timeline has counter tracks, and
  // turns per-module sampling on so those tracks include one per code
  // module; --sample-modules forces it for plain --json runs too.
  uint64_t sample_every = 0;   // --sample-every=N retire cycles
  std::string timeline_out;    // --timeline-out=FILE; empty = off
  bool sample_modules = false; // --sample-modules

  // Abort retry policy (docs/robustness.md). 1 attempt = no retry.
  int retry_attempts = 1;
  uint64_t retry_backoff = 0;  // simulated cycles before first retry
  int retry_cap = 4;           // in-flight-retry admission cap

  // Fault injection: a non-zero --chaos-seed (or any --chaos-points)
  // arms the injector. Points format: NAME=PROB, NAME=PROB@NTH, or
  // NAME=@NTH, comma-separated (e.g.
  // "lock.conflict=0.05,crash.mid_commit=@200").
  uint64_t chaos_seed = 0;
  std::string chaos_points;

  // Fuzzy checkpointing (docs/robustness.md): a non-zero
  // --checkpoint-every enables it; the other two tune the capture rate
  // and the retention depth of the simulated checkpoint device.
  uint64_t checkpoint_every = 0;  // worker-0 transaction ticks; 0 = off
  int checkpoint_pages = 0;       // pages captured per tick (0 = default)
  int checkpoint_retain = 0;      // complete checkpoints kept (0 = default)
};

/// Parses a --chaos-points spec into (point, config) pairs. Returns
/// false with `error` set on a malformed entry or unknown point name.
inline bool ParseChaosPoints(
    const std::string& spec,
    std::vector<std::pair<std::string, fault::FaultPointConfig>>* out,
    std::string* error) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "bad fault point entry (want NAME=PROB[@NTH]): " + entry;
      return false;
    }
    const std::string name = entry.substr(0, eq);
    if (!fault::IsKnownFaultPoint(name)) {
      *error = "unknown fault point: " + name;
      return false;
    }
    std::string rest = entry.substr(eq + 1);
    fault::FaultPointConfig cfg;
    const size_t at = rest.find('@');
    if (at != std::string::npos) {
      char* end = nullptr;
      cfg.nth_hit = std::strtoull(rest.c_str() + at + 1, &end, 10);
      if (end == rest.c_str() + at + 1 || *end != '\0' ||
          cfg.nth_hit == 0) {
        *error = "bad @NTH in fault point entry: " + entry;
        return false;
      }
      rest = rest.substr(0, at);
    }
    if (!rest.empty()) {
      char* end = nullptr;
      cfg.probability = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str() || *end != '\0' || cfg.probability < 0 ||
          cfg.probability > 1) {
        *error = "bad probability in fault point entry: " + entry;
        return false;
      }
    }
    if (cfg.probability == 0 && cfg.nth_hit == 0) {
      *error = "fault point entry arms nothing: " + entry;
      return false;
    }
    out->push_back({name, cfg});
  }
  return true;
}

/// Parses a byte-size flag value like "10MB", "1GB", "512KB", or a bare
/// number (interpreted as MB). Returns 0 on any malformed input: empty,
/// non-numeric, zero, negative, unknown suffix, or trailing garbage.
inline uint64_t ParseSize(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v <= 0) return 0;
  if (strcasecmp(end, "GB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 30));
  }
  if (strcasecmp(end, "KB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 10));
  }
  if (strcasecmp(end, "MB") == 0 || *end == '\0') {
    return static_cast<uint64_t>(v * (1ULL << 20));
  }
  return 0;
}

inline bool ParseEngine(const std::string& s, engine::EngineKind* out) {
  return engine::ParseEngineKind(s, out);
}

/// Parses argv into `flags`. On failure returns false and sets `error`
/// to a one-line description (unknown flag, malformed value). `--list`
/// sets flags->list and parsing continues.
inline bool ParseCommandLine(int argc, char* const* argv, Flags* flags,
                             std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    auto parse_positive_int = [&](const char* v, const char* flag,
                                  int* out) {
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0 || n > 1 << 20) {
        *error = std::string("bad value for ") + flag + ": " + v;
        return false;
      }
      *out = static_cast<int>(n);
      return true;
    };
    if (const char* v = value("--engine=")) {
      flags->engine = v;
    } else if (const char* v = value("--workload=")) {
      flags->workload = v;
    } else if (const char* v = value("--db=")) {
      flags->db_bytes = ParseSize(v);
      if (flags->db_bytes == 0) {
        *error = std::string("bad value for --db: ") + v;
        return false;
      }
    } else if (const char* v = value("--rows=")) {
      if (!parse_positive_int(v, "--rows", &flags->rows)) return false;
    } else if (const char* v = value("--warehouses=")) {
      if (!parse_positive_int(v, "--warehouses", &flags->warehouses)) {
        return false;
      }
    } else if (const char* v = value("--workers=")) {
      if (!parse_positive_int(v, "--workers", &flags->workers)) {
        return false;
      }
    } else if (const char* v = value("--txns=")) {
      flags->txns = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--warmup=")) {
      flags->warmup = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--index=")) {
      flags->index = v;
    } else if (const char* v = value("--mode=")) {
      flags->mode = v;
    } else if (const char* v = value("--seed=")) {
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--retry=")) {
      if (!parse_positive_int(v, "--retry", &flags->retry_attempts)) {
        return false;
      }
    } else if (const char* v = value("--retry-backoff=")) {
      flags->retry_backoff = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--retry-cap=")) {
      if (!parse_positive_int(v, "--retry-cap", &flags->retry_cap)) {
        return false;
      }
    } else if (const char* v = value("--chaos-seed=")) {
      flags->chaos_seed = std::strtoull(v, nullptr, 10);
      if (flags->chaos_seed == 0) {
        *error = "--chaos-seed= needs a non-zero seed";
        return false;
      }
    } else if (const char* v = value("--chaos-points=")) {
      std::vector<std::pair<std::string, fault::FaultPointConfig>> parsed;
      if (!ParseChaosPoints(v, &parsed, error)) return false;
      flags->chaos_points = v;
    } else if (const char* v = value("--checkpoint-every=")) {
      int every = 0;
      if (!parse_positive_int(v, "--checkpoint-every", &every)) {
        return false;
      }
      flags->checkpoint_every = static_cast<uint64_t>(every);
    } else if (const char* v = value("--checkpoint-pages=")) {
      if (!parse_positive_int(v, "--checkpoint-pages",
                              &flags->checkpoint_pages)) {
        return false;
      }
    } else if (const char* v = value("--checkpoint-retain=")) {
      if (!parse_positive_int(v, "--checkpoint-retain",
                              &flags->checkpoint_retain)) {
        return false;
      }
    } else if (const char* v = value("--json=")) {
      if (*v == '\0') {
        *error = "--json= needs a file path (or - for stdout)";
        return false;
      }
      flags->json_path = v;
    } else if (const char* v = value("--trace-out=")) {
      if (*v == '\0') {
        *error = "--trace-out= needs a file path";
        return false;
      }
      flags->trace_out = v;
    } else if (const char* v = value("--sample-every=")) {
      char* end = nullptr;
      flags->sample_every = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || flags->sample_every == 0) {
        *error = std::string("bad value for --sample-every: ") + v;
        return false;
      }
    } else if (const char* v = value("--timeline-out=")) {
      if (*v == '\0') {
        *error = "--timeline-out= needs a file path";
        return false;
      }
      flags->timeline_out = v;
    } else if (arg == "--sample-modules") {
      flags->sample_modules = true;
    } else if (arg == "--no-compilation") {
      flags->compilation = false;
    } else if (arg == "--csv") {
      flags->csv = true;
    } else if (arg == "--csv-header") {
      flags->csv = true;
      flags->csv_header = true;
    } else if (arg == "--list") {
      flags->list = true;
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  return true;
}

/// Builds the ExperimentConfig and Workload one flag set describes —
/// the construction logic shared by imoltp_run and imoltp_trace.
/// Returns false with `error` set for an unknown engine or workload, or
/// a TPC-C scale the workers cannot split.
inline bool BuildExperiment(const Flags& flags,
                            core::ExperimentConfig* cfg,
                            std::unique_ptr<core::Workload>* workload,
                            std::string* error) {
  engine::EngineKind kind;
  if (!ParseEngine(flags.engine, &kind)) {
    *error = "unknown engine: " + flags.engine +
             " (choices: " + engine::EngineKindChoices() + ")";
    return false;
  }
  cfg->engine = kind;
  cfg->num_workers = flags.workers;
  cfg->measure_txns = flags.txns;
  cfg->warmup_txns = flags.warmup;
  cfg->seed = flags.seed;
  if (!core::ParseParallelMode(flags.mode, &cfg->parallel_mode)) {
    *error = "unknown mode: " + flags.mode +
             " (choices: " + core::ParallelModeChoices() + ")";
    return false;
  }
  cfg->retry.max_attempts = flags.retry_attempts;
  cfg->retry.backoff_cycles = flags.retry_backoff;
  cfg->retry.max_inflight_retries = flags.retry_cap;
  cfg->sampler.every_cycles = flags.sample_every;
  // A timeline without counter samples is only half a timeline, and
  // --sample-modules without a sample period would sample nothing:
  // both default to a period that yields a few hundred buckets for
  // typical runs. Timelines include the per-module tracks render wants.
  if ((!flags.timeline_out.empty() || flags.sample_modules) &&
      flags.sample_every == 0) {
    cfg->sampler.every_cycles = 20000;
  }
  cfg->sampler.per_module =
      flags.sample_modules || !flags.timeline_out.empty();
  if (flags.checkpoint_every > 0) {
    cfg->engine_options.checkpoint.enabled = true;
    cfg->engine_options.checkpoint.every_n_ticks = flags.checkpoint_every;
    if (flags.checkpoint_pages > 0) {
      cfg->engine_options.checkpoint.pages_per_step =
          flags.checkpoint_pages;
    }
    if (flags.checkpoint_retain > 0) {
      cfg->engine_options.checkpoint.retain = flags.checkpoint_retain;
    }
  }
  cfg->engine_options.compilation = flags.compilation;
  cfg->engine_options.dbms_m_index = flags.index == "btree"
                                         ? index::IndexKind::kBTreeCc
                                         : index::IndexKind::kHash;

  core::WorkloadKind wkind;
  if (!core::ParseWorkload(flags.workload, &wkind)) {
    *error = "unknown workload: " + flags.workload +
             " (choices: " + core::WorkloadChoices() + ")";
    return false;
  }
  switch (wkind) {
    case core::WorkloadKind::kMicro:
    case core::WorkloadKind::kMicroRw:
    case core::WorkloadKind::kMicroString: {
      core::MicroConfig mcfg;
      mcfg.nominal_bytes = flags.db_bytes;
      mcfg.rows_per_txn = flags.rows;
      mcfg.read_write = wkind == core::WorkloadKind::kMicroRw;
      mcfg.string_columns = wkind == core::WorkloadKind::kMicroString;
      mcfg.num_partitions = flags.workers;
      *workload = std::make_unique<core::MicroBenchmark>(mcfg);
      break;
    }
    case core::WorkloadKind::kTpcb: {
      core::TpcbConfig tcfg;
      tcfg.nominal_bytes = flags.db_bytes;
      tcfg.num_partitions = flags.workers;
      *workload = std::make_unique<core::TpcbBenchmark>(tcfg);
      break;
    }
    case core::WorkloadKind::kTpcc: {
      core::TpccConfig tcfg;
      tcfg.warehouses = flags.warehouses;
      tcfg.num_partitions = flags.workers;
      const Status valid = tcfg.Validate();
      if (!valid.ok()) {
        *error = valid.message();
        return false;
      }
      // TPC-C range-scans; DBMS M uses its B-tree unless hash was
      // forced.
      cfg->engine_options.dbms_m_index = flags.index == "hash"
                                             ? index::IndexKind::kHash
                                             : index::IndexKind::kBTreeCc;
      *workload = std::make_unique<core::TpccBenchmark>(tcfg);
      break;
    }
  }
  return true;
}

/// The meta half of a JSON report's RunInfo, filled from flags (the
/// live-run half — aborts, trace provenance — is the caller's).
inline void FillRunInfo(const Flags& flags, obs::RunInfo* info) {
  info->engine = flags.engine;
  info->workload = flags.workload;
  info->db_bytes = flags.db_bytes;
  info->rows = flags.rows;
  info->warehouses = flags.warehouses;
  info->workers = flags.workers;
  info->warmup_txns = flags.warmup;
  info->measure_txns = flags.txns;
  info->seed = flags.seed;
}

/// One CSV column and the dotted path of the same value in the JSON
/// report — the field-parity test walks this table to prove the two
/// output formats never drift apart.
struct CsvField {
  const char* name;
  const char* json_path;
};

inline constexpr CsvField kCsvFields[] = {
    {"engine", "meta.engine"},
    {"workload", "meta.workload"},
    {"db_bytes", "meta.db_bytes"},
    {"rows", "meta.rows"},
    {"workers", "meta.workers"},
    {"ipc", "window.ipc"},
    {"instr_per_txn", "window.instructions_per_txn"},
    {"cycles_per_txn", "window.cycles_per_txn"},
    {"l1i_kI", "window.stalls_per_kinstr.L1I"},
    {"l2i_kI", "window.stalls_per_kinstr.L2I"},
    {"llci_kI", "window.stalls_per_kinstr.LLC I"},
    {"l1d_kI", "window.stalls_per_kinstr.L1D"},
    {"l2d_kI", "window.stalls_per_kinstr.L2D"},
    {"llcd_kI", "window.stalls_per_kinstr.LLC D"},
};

inline constexpr int kNumCsvFields =
    static_cast<int>(sizeof(kCsvFields) / sizeof(kCsvFields[0]));

inline std::string CsvHeader() {
  std::string out;
  for (int i = 0; i < kNumCsvFields; ++i) {
    if (i > 0) out += ',';
    out += kCsvFields[i].name;
  }
  return out;
}

/// One CSV row matching CsvHeader() column for column.
inline std::string CsvRow(const Flags& flags,
                          const mcsim::WindowReport& r) {
  const auto& k = r.stalls_per_kinstr.stalls;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s,%s,%llu,%d,%d,%.4f,%.1f,%.1f,%.2f,%.2f,%.2f,%.2f,"
                "%.2f,%.2f",
                flags.engine.c_str(), flags.workload.c_str(),
                static_cast<unsigned long long>(flags.db_bytes),
                flags.rows, flags.workers, r.ipc, r.instructions_per_txn,
                r.cycles_per_txn, k[0], k[1], k[2], k[3], k[4], k[5]);
  return buf;
}

}  // namespace imoltp::tools

#endif  // IMOLTP_TOOLS_IMOLTP_CLI_H_
