#ifndef IMOLTP_MCSIM_PROFILER_H_
#define IMOLTP_MCSIM_PROFILER_H_

#include <string>
#include <vector>

#include "mcsim/counters.h"
#include "mcsim/machine.h"
#include "mcsim/sampler.h"

namespace imoltp::mcsim {

/// Cycle share of one code module inside a measurement window.
struct ModuleShare {
  std::string name;
  bool inside_engine = false;
  double cycles = 0.0;
  double fraction = 0.0;
};

/// Aborted-transaction counts by cause for one measurement window.
/// The machine model knows nothing about transactions — the experiment
/// harness classifies each abort Status and fills this in after
/// EndWindow (zero-filled on replayed windows, which re-execute no
/// transaction logic).
struct AbortBreakdown {
  uint64_t total = 0;
  uint64_t lock_conflict = 0;   // no-wait 2PL conflicts and upgrades
  uint64_t validation = 0;      // MVCC write-write / validation failures
  uint64_t partition = 0;       // mis-routed / claimed-partition aborts
  uint64_t injected_fault = 0;  // fault-injector crashes and conflicts
  uint64_t other = 0;
};

/// One bucket of the sampled time-series: the deltas between two
/// consecutive counter samples on one core. Bucket boundaries (`t0`,
/// `t1`) are on the retirement clock and therefore placement-
/// independent and bit-identical across same-seed serial runs;
/// miss-derived values (`model_cycles`, `ipc`, `stalls_per_kinstr`)
/// carry only address-placement noise (see mcsim/sampler.h).
struct SeriesBucket {
  double t0 = 0.0;  // window-relative retire cycles at bucket start
  double t1 = 0.0;  // window-relative retire cycles at bucket end
  uint64_t instructions = 0;
  uint64_t transactions = 0;
  uint64_t aborted_txns = 0;
  uint64_t mispredictions = 0;
  uint64_t tlb_misses = 0;
  LevelMisses misses;
  double model_cycles = 0.0;  // full cycle-model delta
  double ipc = 0.0;
  StallBreakdown stalls_per_kinstr;
  double abort_rate = 0.0;  // aborted / (committed + aborted)
  /// Modeled-cycle delta per module, index-aligned with
  /// WindowReport::sampled_module_names. Empty unless the sampler was
  /// armed with SamplerConfig::per_module.
  std::vector<double> module_cycles;
};

/// The sampled time-series of one worker core across a measurement
/// window, including the closing partial bucket (last sample → window
/// end).
struct CoreSeries {
  int core = -1;
  uint64_t dropped = 0;  // samples lost to ring wrap-around
  std::vector<SeriesBucket> buckets;
};

/// Auto-warmup convergence check: a window whose first- and second-half
/// IPC diverge beyond tolerance was still warming up (ramping caches or
/// a contention storm), and its whole-window averages hide a trend.
/// Computed from the sampled series by the experiment harness.
struct ConvergenceCheck {
  bool checked = false;  // sampling was on and the series had >=2 buckets
  double first_half_ipc = 0.0;
  double second_half_ipc = 0.0;
  double divergence = 0.0;  // |first - second| / second
  double tolerance = 0.0;
  bool converged = true;
};

/// One row of the module×transaction-type attribution matrix: where one
/// transaction type's modeled cycles went, module by module. Extends the
/// Figure 7 breakdown in the transaction dimension — e.g. TPC-C shows
/// where NewOrder spends versus StockLevel. Filled by the experiment
/// harness (the machine model knows nothing about transaction types).
struct TxnTypeShare {
  std::string txn_type;
  uint64_t count = 0;      // transactions of this type (any outcome)
  double cycles = 0.0;     // total modeled cycles across workers
  double fraction = 0.0;   // of all matrix cycles
  std::vector<ModuleShare> modules;
};

/// Everything the paper reports for one measurement window, filtered to
/// the worker threads and averaged across them (Section 3,
/// "Measurements"): IPC, stall cycles per 1000 instructions and per
/// transaction from each level of the hierarchy, and the per-module cycle
/// breakdown behind Figure 7.
struct WindowReport {
  int num_workers = 0;
  double instructions = 0.0;  // average per worker
  double cycles = 0.0;        // average per worker (cycle model)
  double transactions = 0.0;  // average per worker
  double mispredictions = 0.0;
  double base_cycles = 0.0;   // average per worker (instr x inherent CPI)
  double tlb_misses = 0.0;    // average per worker
  LevelMisses misses;  // summed over workers (raw counts)

  double ipc = 0.0;
  double instructions_per_txn = 0.0;
  double cycles_per_txn = 0.0;
  StallBreakdown stalls_per_kinstr;
  StallBreakdown stalls_per_txn;

  /// Fraction of modeled cycles spent in modules flagged inside_engine.
  double engine_cycle_fraction = 0.0;
  std::vector<ModuleShare> module_breakdown;

  /// Filled by the experiment harness (not the profiler) — see
  /// AbortBreakdown.
  AbortBreakdown aborts;

  /// Sampled time-series, one entry per worker core, in worker order.
  /// Empty when sampling was off for the window (sample_every == 0).
  uint64_t sample_every = 0;  // retire-cycle period of the samples
  std::vector<CoreSeries> timeseries;

  /// Names for SeriesBucket::module_cycles indices, in registry order.
  /// Empty unless the sampler ran with SamplerConfig::per_module.
  std::vector<std::string> sampled_module_names;

  /// Auto-warmup convergence verdict over `timeseries` (experiment
  /// harness; `checked` stays false when sampling was off).
  ConvergenceCheck convergence;

  /// Module×transaction-type attribution (experiment harness; empty on
  /// replayed windows, which re-execute no transaction logic).
  std::vector<TxnTypeShare> txn_module_matrix;
};

/// VTune-lookalike sampling facade. Usage mirrors the paper's
/// methodology: populate and warm up with the profiler detached, then
/// `BeginWindow()` … run the measured transactions … `EndWindow()`, and
/// read `Report()`. Counter filtering to the identified worker threads is
/// the `worker_cores` argument.
/// Window misuse — EndWindow without BeginWindow, double BeginWindow,
/// an empty or out-of-range worker set — aborts via IMOLTP_CHECK: a
/// silently-empty report would poison archived results.
class Profiler {
 public:
  explicit Profiler(MachineSim* machine) : machine_(machine) {}

  /// Opens the window. When sampling is armed on the machine, each
  /// worker core's sample ring is restarted so the window's time-series
  /// buckets are window-relative and never polluted by warm-up samples.
  void BeginWindow(std::vector<int> worker_cores);
  WindowReport EndWindow();

  bool window_open() const { return window_open_; }

 private:
  /// Builds the per-core time-series from the samples each worker
  /// core's ring collected during the window.
  void BuildTimeseries(WindowReport* r) const;

  MachineSim* machine_;
  std::vector<int> worker_cores_;
  std::vector<CoreCounters> window_start_;
  bool window_open_ = false;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_PROFILER_H_
