#ifndef IMOLTP_OBS_BENCH_JSON_H_
#define IMOLTP_OBS_BENCH_JSON_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace imoltp::obs {

/// Version of the benchmark-trajectory schema emitted by imoltp_bench
/// (`BENCH_<label>.json`) and compared by imoltp_diff. Independent of
/// the per-run report schema: bench matrices live across commits, so
/// this version only bumps when a key is renamed/removed — adding keys
/// is compatible (ParseBenchMatrix defaults what is absent).
inline constexpr int kBenchSchemaVersion = 1;

/// One cell of a benchmark campaign: an (engine, workload, mode,
/// workers) point with its simulated quality metrics (IPC, stalls —
/// deterministic from the seed) and its host-side speed
/// metrics (wall-clock, simulated references per host second — never
/// deterministic, compared only with regression thresholds).
struct BenchCell {
  /// Stable matching key, e.g. "voltdb/tpcc/serial/w2". Cells of
  /// two matrices are paired by id; everything else is payload.
  std::string id;

  std::string engine;
  std::string workload;
  std::string mode;
  int workers = 0;
  uint64_t warmup_txns = 0;
  uint64_t measure_txns = 0;
  uint64_t seed = 0;

  // Simulated-machine metrics (the paper's axes).
  double ipc = 0.0;
  double instructions_per_txn = 0.0;
  double cycles_per_txn = 0.0;
  std::array<double, 6> stalls_per_kinstr{};  // StallBreakdown order
  uint64_t committed = 0;
  uint64_t aborts = 0;
  /// Cluster cells only: network+ordering share of the p99 multi-home
  /// critical path (distributed tracing, docs/distributed.md). 0 for
  /// single-machine cells and for baselines recorded before the column
  /// existed (the parser defaults it — schema stays v1).
  double p99_net_order_share = 0.0;

  // Host-side speed metrics (simulator self-observability).
  double wall_seconds = 0.0;        // measurement window
  double total_wall_seconds = 0.0;  // populate + warmup + measure
  uint64_t simulated_refs = 0;
  double refs_per_sec = 0.0;
  double instructions_per_sec = 0.0;
  uint64_t peak_rss_bytes = 0;
};

/// One recorded point of the benchmark trajectory: a labeled campaign
/// with its provenance (commit, flag string, creation time) and cells.
struct BenchMatrix {
  std::string label;
  std::string commit;       // git revision, or "unknown"
  std::string config;       // the campaign flags, verbatim
  uint64_t created_unix = 0;
  std::vector<BenchCell> cells;

  /// The cell with this id, or nullptr.
  const BenchCell* FindCell(const std::string& id) const;
};

std::string BenchMatrixToJson(const BenchMatrix& matrix);

/// Parses a bench matrix. Tolerant of sparse cells — a timing-only
/// matrix (e.g. the run_all_bench.sh wall-clock table) carries just
/// `id` and `wall_seconds`, and every absent numeric field stays 0 —
/// but strict about structure: a missing `cells` array, a cell without
/// an `id`, or a bench_schema_version mismatch is an error.
StatusOr<BenchMatrix> ParseBenchMatrix(const std::string& json);

/// Tolerance rules for comparing two trajectory points.
struct BenchCompareOptions {
  /// Relative drift allowed on the simulated metrics (ipc,
  /// instructions_per_txn) — symmetric, since a simulated-metric change
  /// in either direction means the modeled behavior changed.
  double ipc_rtol = 0.05;
  /// Allowed fractional host-speed regression: candidate refs/sec below
  /// baseline * (1 - max_regress) fails (so does wall-clock above
  /// baseline * (1 + max_regress) for timing-only cells). Improvements
  /// never fail.
  double max_regress = 0.15;
  /// When set, baseline cells absent from the candidate are skipped
  /// instead of failing (reduced CI sweeps vs a full baseline).
  bool allow_missing = false;
};

struct BenchCompareFailure {
  std::string cell;    // cell id, or "" for matrix-level problems
  std::string metric;
  std::string detail;
};

/// Pairs cells by id and applies the tolerance rules. Empty result =
/// the candidate is at least as good as the baseline everywhere.
std::vector<BenchCompareFailure> CompareBenchMatrices(
    const BenchMatrix& baseline, const BenchMatrix& candidate,
    const BenchCompareOptions& options);

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_BENCH_JSON_H_
