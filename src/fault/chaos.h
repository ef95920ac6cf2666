#ifndef IMOLTP_FAULT_CHAOS_H_
#define IMOLTP_FAULT_CHAOS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "fault/fault_injector.h"
#include "fault/invariants.h"
#include "txn/checkpoint.h"

namespace imoltp::fault {

/// One seeded crash → recover → verify campaign. Each cycle builds a
/// fresh engine, runs the workload with the armed fault points, rebuilds
/// a second engine from whatever log survived the (possible) crash, and
/// audits the workload's consistency invariants on the recovered
/// database — and, when no crash fired, on the live one too.
struct ChaosOptions {
  engine::EngineKind engine = engine::EngineKind::kVoltDb;
  std::string workload = "tpcb";  // "tpcb" or "tpcc"
  int cycles = 3;
  int workers = 2;
  uint64_t warmup_txns = 50;
  uint64_t measure_txns = 300;  // per worker
  uint64_t seed = 1;
  core::ParallelMode mode = core::ParallelMode::kSerial;
  core::RetryPolicy retry;

  /// Fault points to arm each cycle (same configs, fresh per-cycle
  /// injector seed derived from `seed` and the cycle index).
  std::vector<std::pair<std::string, FaultPointConfig>> points;

  /// Workload scale — small defaults keep a cycle cheap enough for CI.
  uint64_t tpcb_nominal_bytes = 1ULL << 20;
  int tpcc_warehouses = 4;
  int tpcc_orders_per_district = 30;

  /// Small WAL rings force frequent asynchronous flushes, tightening
  /// the post-commit durability window the crashes land in.
  uint32_t log_buffer_bytes = 1u << 16;

  /// Fuzzy checkpointing during each cycle: the engine captures
  /// checkpoints on this cadence and truncates its WAL to the recovery
  /// anchor, so recovery is checkpoint-restore + tail replay instead of
  /// full-log REDO. The `ckpt.torn_page` fault point (armed via
  /// `points`) tears one page of the newest complete checkpoint after
  /// the crash — recovery must detect it via checksum and fall back to
  /// the previous complete checkpoint.
  txn::CheckpointPolicy checkpoint;

  mcsim::MachineConfig machine_config;
};

struct ChaosCycleResult {
  int cycle = 0;
  uint64_t committed = 0;
  uint64_t aborts = 0;
  mcsim::AbortBreakdown breakdown;
  core::RetryStats retry;
  std::string crash_point;  // "" = the run finished without a crash
  uint64_t log_records = 0;     // records fed to recovery
  uint64_t dropped_records = 0;  // seeded tail truncation (log surgery)
  /// Checkpoint + truncation accounting (zero unless checkpointing was
  /// enabled). `appended_records` is the untruncated log length a
  /// full-replay recovery would have processed; the acceptance bar is
  /// recovery.replayed_records strictly below it once a truncation
  /// happened.
  uint64_t appended_records = 0;
  uint64_t truncated_records = 0;
  uint64_t log_truncation_lsn = 0;
  uint64_t checkpoints_completed = 0;
  uint64_t torn_pages_injected = 0;
  txn::RecoveryStats recovery;
  InvariantReport recovered;
  bool live_checked = false;  // live audit runs only without a crash
  InvariantReport live;
  std::vector<FaultPointStats> fault_stats;
  /// FNV-1a digest of the cycle's observable outcome (commit/abort
  /// counts, surviving log contents sans LSNs, invariant checksums).
  /// Two runs with the same options match bit for bit in either
  /// ParallelMode — the determinism contract chaos_test enforces.
  uint64_t fingerprint = 0;
};

struct ChaosReport {
  bool ok = true;  // every audited invariant held in every cycle
  uint64_t fingerprint = 0;  // digest over the cycle fingerprints
  std::vector<ChaosCycleResult> cycles;
};

/// Runs the campaign. A non-OK status means the harness itself failed
/// (bad options, population or replay error); invariant violations are
/// reported in the returned ChaosReport instead.
StatusOr<ChaosReport> RunChaos(const ChaosOptions& options);

/// Serializes a campaign report (imoltp_chaos --json).
std::string ChaosReportToJson(const ChaosOptions& options,
                              const ChaosReport& report);

}  // namespace imoltp::fault

#endif  // IMOLTP_FAULT_CHAOS_H_
