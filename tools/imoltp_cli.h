#ifndef IMOLTP_TOOLS_IMOLTP_CLI_H_
#define IMOLTP_TOOLS_IMOLTP_CLI_H_

// Command-line surface of the tools, in a header so the unit tests can
// drive each tool's flag table, experiment construction and CSV
// emission directly instead of exec'ing the binaries and scraping
// stdout. The experiment flags the tools share are declared once here;
// each tool binds them to its own fields, whose initial values are that
// tool's defaults.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "dist/cluster.h"
#include "engine/engine.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "mcsim/profiler.h"
#include "obs/report_json.h"
#include "tools/flags.h"

namespace imoltp::tools {

using ChaosPoints =
    std::vector<std::pair<std::string, fault::FaultPointConfig>>;

/// imoltp_run's flags.
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
  std::string json_path;   // --json=FILE; "-" = stdout; empty = off
  std::string trace_out;   // --trace-out=FILE; empty = no capture

  // Time-resolved profiling (docs/OBSERVABILITY.md): sample the worker
  // cores' counters every N retire cycles (0 = off) and/or write a
  // Perfetto-loadable timeline. --timeline-out with no --sample-every
  // picks a default period so the timeline has counter tracks, and
  // turns per-module sampling on so those tracks include one per code
  // module; --sample-modules forces it for plain --json runs too.
  uint64_t sample_every = 0;
  std::string timeline_out;
  bool sample_modules = false;

  core::RetryPolicy retry;  // docs/robustness.md

  // Fault injection: a non-zero --chaos-seed (or any --chaos-points)
  // arms the injector.
  uint64_t chaos_seed = 0;
  ChaosPoints chaos_points;

  // Fuzzy checkpointing (docs/robustness.md), off unless
  // --checkpoint-every is given.
  txn::CheckpointPolicy checkpoint;
};

/// Parses a --chaos-points spec into (point, config) pairs. Returns
/// false with `error` set on a malformed entry or unknown point name.
inline bool ParseChaosPoints(const std::string& spec, ChaosPoints* out,
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
      if (!ParseNumber(rest.substr(at + 1), uint64_t{1},
                       std::numeric_limits<uint64_t>::max(),
                       &cfg.nth_hit)) {
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

inline bool ParseEngine(const std::string& s, engine::EngineKind* out) {
  return engine::ParseEngineKind(s, out);
}

// ------------------------------------------------- shared experiment flags

/// Upper bound of the count-valued flags (workers, rows, retries...).
inline constexpr int kMaxCount = 1 << 20;

// A choice flag's default, spelled the way the flag takes it.
inline std::string Spelling(const std::string& s) { return s; }
inline std::string Spelling(engine::EngineKind k) {
  return engine::EngineKindName(k);
}
inline std::string Spelling(core::ParallelMode m) {
  return core::ParallelModeName(m);
}

template <typename Out>
Flag EngineFlag(Out* out) {
  return Choice("--engine", "engine", out, engine::ParseEngineKind,
                engine::EngineKindChoices(), Spelling(*out));
}

inline Flag WorkloadFlag(std::string* out) {
  return Choice("--workload", "workload", out, core::ParseWorkload,
                core::WorkloadChoices(), *out);
}

template <typename Out>
Flag ModeFlag(Out* out) {
  return Choice("--mode", "worker interleaving, see docs/parallel_execution.md",
                out, core::ParseParallelMode, core::ParallelModeChoices(),
                Spelling(*out));
}

inline Flag DbFlag(uint64_t* bytes) {
  return Size("--db", "nominal database size, e.g. 10MB, 10GB, 100GB",
              bytes);
}

inline Flag WarehousesFlag(int* warehouses) {
  return Number("--warehouses", "TPC-C scale (divisible by --workers)",
                warehouses, 1, kMaxCount);
}

inline Flag WorkersFlag(int* workers) {
  return Number("--workers", "worker cores == partitions", workers, 1,
                kMaxCount);
}

inline Flag TxnsFlag(uint64_t* txns) {
  return Number("--txns", "measured transactions per worker", txns);
}

inline Flag WarmupFlag(uint64_t* warmup) {
  return Number("--warmup", "warm-up transactions per worker", warmup);
}

inline Flag SeedFlag(uint64_t* seed) {
  return Number("--seed", "seed", seed);
}

inline Flag JsonFlag(std::string* path) {
  return Text("--json", "FILE", "write the JSON report (- = stdout)",
              path);
}

inline Flag TimelineOutFlag(std::string* path) {
  return Text("--timeline-out", "FILE",
              "write a Perfetto-loadable timeline (see imoltp_timeline)",
              path);
}

inline Flag ChaosPointsFlag(ChaosPoints* points) {
  return Custom("--chaos-points", "SPEC",
                "NAME=PROB[@NTH],... fault points to arm (e.g. "
                "lock.conflict=0.05,crash.mid_commit=@90)",
                [points](const std::string& v, std::string* error) {
                  return ParseChaosPoints(v, points, error);
                });
}

inline Flag RetryFlag(core::RetryPolicy* retry) {
  return Number("--retry", "attempts per transaction (1 = no retry)",
                &retry->max_attempts, 1, kMaxCount);
}

inline Flag RetryBackoffFlag(core::RetryPolicy* retry) {
  return Number("--retry-backoff",
                "cycles before the first retry (doubles per attempt)",
                &retry->backoff_cycles);
}

inline Flag RetryCapFlag(core::RetryPolicy* retry) {
  return Number("--retry-cap", "in-flight-retry admission cap",
                &retry->max_inflight_retries, 1, kMaxCount);
}

inline Flag CheckpointEveryFlag(txn::CheckpointPolicy* policy) {
  return Custom("--checkpoint-every", "N",
                "enable fuzzy checkpointing, one every N worker-0 "
                "transaction ticks",
                [policy](const std::string& v, std::string* error) {
                  if (!ParseNumber(v, uint64_t{1}, uint64_t{kMaxCount},
                                   &policy->every_n_ticks)) {
                    *error = "want a whole number in [1, " +
                             std::to_string(kMaxCount) + "]";
                    return false;
                  }
                  policy->enabled = true;
                  return true;
                },
                "off");
}

inline Flag CheckpointPagesFlag(txn::CheckpointPolicy* policy) {
  return Number("--checkpoint-pages", "fuzzy capture rate (pages per tick)",
                &policy->pages_per_step, 1, kMaxCount);
}

inline Flag CheckpointRetainFlag(txn::CheckpointPolicy* policy) {
  return Number("--checkpoint-retain",
                "complete checkpoints kept on the device",
                &policy->retain, 1, kMaxCount);
}

/// The fault-point names, for the notes under a tool's flag list.
inline std::string FaultPointNote() {
  std::string out = "fault points:";
  for (const char* p : fault::kAllFaultPoints) out += std::string(" ") + p;
  return out + "\n";
}

// ---------------------------------------------------- each tool's flags

// --index spellings: DBMS M's hash index or its B-tree.
inline bool ParseIndexName(const std::string& s, bool* btree) {
  *btree = s == "btree";
  return s == "hash" || s == "btree";
}

/// imoltp_run.
inline FlagSet RunCommandLine(Flags* f) {
  return {
      "",
      {
          EngineFlag(&f->engine),
          WorkloadFlag(&f->workload),
          DbFlag(&f->db_bytes),
          Number("--rows", "micro: rows per transaction", &f->rows, 1,
                 kMaxCount),
          WarehousesFlag(&f->warehouses),
          WorkersFlag(&f->workers),
          TxnsFlag(&f->txns),
          WarmupFlag(&f->warmup),
          Choice("--index", "DBMS M index", &f->index, ParseIndexName,
                 "hash btree", f->index),
          Switch("--no-compilation",
                 "disable DBMS M transaction compilation", &f->compilation,
                 false),
          ModeFlag(&f->mode),
          SeedFlag(&f->seed),
          Switch("--csv", "print one CSV row", &f->csv),
          Custom("--csv-header", "", "print the CSV header too (implies --csv)",
                 [f](const std::string&, std::string*) {
                   f->csv = f->csv_header = true;
                   return true;
                 }),
          JsonFlag(&f->json_path),
          Text("--trace-out", "FILE",
               "record the simulated reference stream for imoltp_trace "
               "replay (docs/tracing.md)",
               &f->trace_out),
          Number("--sample-every",
                 "sample worker-core counters every N retire cycles into "
                 "the report's timeseries",
                 &f->sample_every, uint64_t{1}),
          TimelineOutFlag(&f->timeline_out),
          Switch("--sample-modules",
                 "also sample per-module cycles (implied by "
                 "--timeline-out)",
                 &f->sample_modules),
          RetryFlag(&f->retry),
          RetryBackoffFlag(&f->retry),
          RetryCapFlag(&f->retry),
          Number("--chaos-seed", "arm the fault injector with this seed",
                 &f->chaos_seed, uint64_t{1}),
          ChaosPointsFlag(&f->chaos_points),
          CheckpointEveryFlag(&f->checkpoint),
          CheckpointPagesFlag(&f->checkpoint),
          CheckpointRetainFlag(&f->checkpoint),
      },
      FaultPointNote()};
}

/// imoltp_chaos.
struct ChaosFlags {
  fault::ChaosOptions opt;
  std::string json_path;
};

inline FlagSet ChaosCommandLine(ChaosFlags* c) {
  fault::ChaosOptions* o = &c->opt;
  return {
      "",
      {
          EngineFlag(&o->engine),
          WorkloadFlag(&o->workload),
          Number("--cycles", "crash->recover->verify cycles", &o->cycles, 1,
                 kMaxCount),
          WorkersFlag(&o->workers),
          TxnsFlag(&o->measure_txns),
          WarmupFlag(&o->warmup_txns),
          SeedFlag(&o->seed),
          ModeFlag(&o->mode),
          ChaosPointsFlag(&o->points),
          RetryFlag(&o->retry),
          RetryBackoffFlag(&o->retry),
          RetryCapFlag(&o->retry),
          DbFlag(&o->tpcb_nominal_bytes),
          WarehousesFlag(&o->tpcc_warehouses),
          Number("--orders", "TPC-C initial orders per district",
                 &o->tpcc_orders_per_district, 1, kMaxCount),
          Size("--log-buffer", "per-worker WAL ring", &o->log_buffer_bytes,
               uint64_t{1} << 30),
          CheckpointEveryFlag(&o->checkpoint),
          CheckpointPagesFlag(&o->checkpoint),
          CheckpointRetainFlag(&o->checkpoint),
          JsonFlag(&c->json_path),
      },
      "workloads with audited invariants: tpcb tpcc\n" + FaultPointNote() +
          "exit codes: 0 = all invariants held in every cycle, 1 = a "
          "violation, 2 = usage or harness error\n"};
}

/// imoltp_cluster (both subcommands).
struct ClusterFlags {
  dist::ClusterConfig cfg;
  std::string json_path = "-";
  std::vector<int> sweep_pcts = {0, 10, 50, 100};
  std::string timeline_path;
  bool fingerprint = false;
  bool trace_set = false;  // --trace-sample was given
};

inline FlagSet ClusterCommandLine(ClusterFlags* c) {
  dist::ClusterConfig* cfg = &c->cfg;
  return {
      "run|sweep ",
      {
          Number("--nodes", "cluster size", &cfg->nodes, 1, 64),
          Number("--warehouses-per-node",
                 "TPC-C warehouses per node (divisible by "
                 "--workers-per-node)",
                 &cfg->warehouses_per_node, 1, 1 << 12),
          Number("--workers-per-node", "worker cores == partitions per node",
                 &cfg->workers_per_node, 1, 64),
          Number("--orders-per-district", "initial orders per district",
                 &cfg->orders_per_district, 1, kMaxCount),
          EngineFlag(&cfg->engine_kind),
          Number("--txns", "measured transactions generated per node",
                 &cfg->txns_per_node),
          Number("--warmup", "warm-up transactions per node",
                 &cfg->warmup_per_node),
          Number("--multi-home-pct",
                 "% of NewOrder/Payment that cross nodes (run only)",
                 &cfg->multi_home_pct, 0, 100),
          Number("--batch", "transactions per node per scheduling round",
                 &cfg->batch_per_round, 1, 1 << 16),
          Number("--net-latency", "one-way message latency in cycles",
                 &cfg->net.latency_cycles),
          SeedFlag(&cfg->seed),
          JsonFlag(&c->json_path),
          Switch("--fingerprint",
                 "also print \"fingerprint: <hex>\" on stderr",
                 &c->fingerprint),
          Custom("--chaos-node-death", "SPEC",
                 "arm node.death: PROB, PROB@NTH or @NTH (e.g. @5 = the "
                 "5th (node,round) check)",
                 [cfg](const std::string& v, std::string* error) {
                   // Same PROB[@NTH] grammar as --chaos-points values.
                   ChaosPoints parsed;
                   if (!ParseChaosPoints(
                           std::string(fault::kNodeDeath) + "=" + v,
                           &parsed, error)) {
                     return false;
                   }
                   cfg->chaos.enabled = true;
                   cfg->chaos.probability = parsed[0].second.probability;
                   cfg->chaos.nth_hit = parsed[0].second.nth_hit;
                   return true;
                 }),
          Switch("--no-recover",
                 "leave dead nodes dead (skips the cross-node audit "
                 "layers)",
                 &cfg->chaos.recover, false),
          Custom("--sweep-pcts", "A,B,...",
                 "sweep series of multi-home percentages",
                 [c](const std::string& v, std::string* error) {
                   c->sweep_pcts.clear();
                   for (const std::string& entry : SplitList(v)) {
                     int pct = 0;
                     if (!ParseNumber(entry, 0, 100, &pct)) {
                       *error = "want percentages in [0, 100]";
                       return false;
                     }
                     c->sweep_pcts.push_back(pct);
                   }
                   return !c->sweep_pcts.empty();
                 },
                 "0,10,50,100"),
          Custom("--trace-sample", "N|1/N",
                 "trace one in N transactions (1 = all, 0 = off); "
                 "fingerprints stay bit-identical",
                 [c](const std::string& v, std::string* error) {
                   const bool ratio = v.rfind("1/", 0) == 0;
                   if (!ParseNumber(ratio ? v.substr(2) : v, uint64_t{0},
                                    std::numeric_limits<uint64_t>::max(),
                                    &c->cfg.trace.sample)) {
                     *error = "want N or 1/N, e.g. 1, 4, 1/16; 0 = off";
                     return false;
                   }
                   c->cfg.trace.enabled = c->cfg.trace.sample > 0;
                   c->trace_set = true;
                   return true;
                 },
                 "off"),
          Number("--trace-ring",
                 "full trace records kept for the timeline and p99 "
                 "composition",
                 &cfg->trace.ring_capacity, size_t{1}, size_t{1} << 24),
          TimelineOutFlag(&c->timeline_path),
      },
      "--timeline-out applies to `run` and implies --trace-sample=1 "
      "unless tracing was configured.\n"
      "node-death recovery REDOes the dead node's physical log; voltdb's "
      "command log is not\nphysically replayable, so chaos runs should "
      "keep a physical-logging engine.\n"
      "per-node execution mode: serial (of: " +
          std::string(core::ParallelModeChoices()) + ")\n" +
          FaultPointNote()};
}

/// imoltp_bench.
struct BenchFlags {
  std::string label = "local";
  std::string out;  // empty = BENCH_<label>.json
  std::vector<std::string> engines = {"shore-mt", "dbms-d", "voltdb",
                                      "hyper", "dbms-m"};
  std::vector<std::string> workloads = {"tpcb", "tpcc", "tpcc-cluster"};
  std::vector<std::string> modes = {"serial"};
  int workers = 2;
  uint64_t txns = 2000;
  uint64_t warmup = 500;
  uint64_t db_bytes = 1ULL << 20;
  int warehouses = 2;
  uint64_t seed = 42;
  std::string commit;  // empty = $IMOLTP_COMMIT or "unknown"
};

/// A non-empty comma list of names, e.g. --engines=voltdb,hyper.
inline Flag ListFlag(const char* name, const char* help,
                     std::vector<std::string>* out) {
  std::string shown;
  for (const std::string& s : *out) shown += (shown.empty() ? "" : ",") + s;
  return Custom(name, "A,B,...", help,
                [out](const std::string& v, std::string*) {
                  *out = SplitList(v);
                  return !out->empty();
                },
                shown);
}

inline FlagSet BenchCommandLine(BenchFlags* b) {
  return {
      "",
      {
          Text("--label", "NAME", "matrix label", &b->label),
          Text("--out", "FILE",
               "output path (default BENCH_<label>.json, - = stdout)",
               &b->out),
          ListFlag("--engines", "engines to sweep", &b->engines),
          ListFlag("--workloads",
                   "workloads to sweep; tpcc-cluster runs the 3-node "
                   "src/dist cluster (serial only)",
                   &b->workloads),
          ListFlag("--modes", "parallel modes to sweep", &b->modes),
          WorkersFlag(&b->workers),
          TxnsFlag(&b->txns),
          WarmupFlag(&b->warmup),
          DbFlag(&b->db_bytes),
          WarehousesFlag(&b->warehouses),
          SeedFlag(&b->seed),
          Text("--commit", "REV",
               "provenance recorded in the matrix (default "
               "$IMOLTP_COMMIT or \"unknown\")",
               &b->commit),
      },
      "exit codes: 0 = all cells ran, 1 = any cell failed, 2 = usage "
      "error\n"};
}

/// Builds the ExperimentConfig and Workload one flag set describes —
/// the construction logic shared by imoltp_run and imoltp_bench.
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
  cfg->retry = flags.retry;
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
  cfg->engine_options.checkpoint = flags.checkpoint;
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
