#ifndef IMOLTP_OBS_REPORT_JSON_H_
#define IMOLTP_OBS_REPORT_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "mcsim/profiler.h"
#include "obs/histogram.h"
#include "obs/host_metrics.h"
#include "obs/json.h"
#include "obs/span.h"
#include "txn/checkpoint.h"

namespace imoltp::obs {

/// Version of the JSON report schema. Bump on any incompatible change
/// (renamed/removed keys, changed units); imoltp_diff refuses to
/// compare documents with different versions.
/// v4 added `window.txn_module_breakdown` and the top-level
/// `timeseries` section (sampled per-core series + the auto-warmup
/// convergence verdict; present only when sampling was on).
/// v5 added the top-level `host` section (host-side wall-clock,
/// simulator throughput, RSS — never deterministic, always ignored by
/// imoltp_diff) and the per-module sampled series
/// (`timeseries.sampled_modules` + per-bucket `module_cycles`, present
/// only when the sampler ran per-module).
/// v6 added the cluster documents emitted by `imoltp_cluster`: a
/// top-level `cluster` section (deterministic outcome counts, network
/// accounting, per-node stats, fingerprint, invariants, plus per-node
/// `windows` carrying the standard window report) and the
/// `cluster_sweep` document's top-level `sweep` section
/// (`series` exact / `perf` tolerant). Single-run reports are
/// unchanged in shape.
/// v7 added the top-level `recovery` section (fuzzy-checkpoint
/// accounting — checkpoints begun/completed, captured pages/bytes, WAL
/// truncation — plus the recovery stats when the run performed one;
/// present only when checkpointing was enabled).
/// v8 added distributed tracing to the cluster documents: the
/// `cluster.tracing` section (trace counts, per-stage cycle
/// percentiles, critical-path histograms, p99 tail composition and its
/// network+ordering share) and the sweep tracing columns
/// (`sweep.series.*.traced`/`orphaned` exact,
/// `sweep.perf.*.p99_critical_cycles`/`p99_net_order_share` tolerant).
/// Single-run reports are unchanged in shape.
inline constexpr int kReportSchemaVersion = 8;

/// Top-Down-style decomposition of the modeled cycles (per worker):
/// retiring (inherent CPI work), frontend (instruction-miss refill),
/// memory (data misses + TLB walks), bad speculation (branch flushes).
struct CycleAccounting {
  double retiring = 0.0;
  double frontend = 0.0;
  double memory = 0.0;
  double bad_speculation = 0.0;

  double total() const {
    return retiring + frontend + memory + bad_speculation;
  }
};

CycleAccounting ComputeCycleAccounting(
    const mcsim::WindowReport& report,
    const mcsim::CycleModelParams& params);

/// Identity of one measured run — everything needed to decide whether
/// two reports are comparable.
struct RunInfo {
  std::string engine;
  std::string workload;
  uint64_t db_bytes = 0;
  int rows = 0;
  int warehouses = 0;
  int workers = 1;
  uint64_t warmup_txns = 0;
  uint64_t measure_txns = 0;
  uint64_t seed = 0;
  uint64_t aborts = 0;

  /// Trace provenance (schema v2): the id of the trace file this run
  /// recorded or replayed ("" = no trace involved), and whether the
  /// numbers come from a replay rather than a live simulation.
  std::string trace_file_id;
  bool replayed = false;
};

/// Robustness section of the report (schema v3): abort causes, the
/// retry path, and the fault-injection schedule of the run. Zero-filled
/// /absent for replayed windows (replay re-executes no transaction
/// logic).
struct RobustnessInfo {
  mcsim::AbortBreakdown aborts;
  uint64_t committed = 0;

  int retry_max_attempts = 1;
  uint64_t retries = 0;
  uint64_t retry_successes = 0;
  uint64_t retry_rejections = 0;

  bool faults_enabled = false;
  uint64_t fault_seed = 0;
  std::string crash_point;  // "" = run finished without an injected crash
  std::vector<fault::FaultPointStats> fault_points;
};

/// Checkpoint / recovery section of the report (schema v7). Live runs
/// fill the checkpoint half from the engine's CheckpointManager; a
/// process that performed a recovery also fills `recovery` and sets
/// `recovered`. Deterministic, so imoltp_diff compares it exactly.
struct RecoveryInfo {
  bool checkpoint_enabled = false;
  uint64_t checkpoint_every_n_ticks = 0;
  int checkpoint_pages_per_step = 0;
  int checkpoint_retain = 0;
  txn::CheckpointStats checkpoint;
  uint64_t log_truncation_lsn = 0;
  uint64_t appended_log_records = 0;
  bool recovered = false;
  txn::RecoveryStats recovery;
};

/// Serializes one WindowReport (IPC, both stall breakdowns, raw misses,
/// module breakdown, cycle accounting) as a JSON object into `w`.
/// `params` feeds the cycle-accounting decomposition.
void WindowReportToJson(JsonWriter& w, const mcsim::WindowReport& report,
                        const mcsim::CycleModelParams& params);

/// The full schema-versioned report emitted by `imoltp_run --json`.
/// `latency`, `spans`, `robustness` and `host` may be null (e.g. bench
/// rows, which only have the window; replays, which have no live host
/// profile).
std::string RunReportToJson(const RunInfo& info,
                            const mcsim::WindowReport& report,
                            const mcsim::CycleModelParams& params,
                            const LatencyHistogram* latency,
                            const SpanCollector* spans,
                            const RobustnessInfo* robustness = nullptr,
                            const HostPerf* host = nullptr,
                            const RecoveryInfo* recovery = nullptr);

/// Writes `json` to `path` ("-" = stdout). Atomic via rename.
Status WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_REPORT_JSON_H_
