#ifndef IMOLTP_CORE_EXPERIMENT_H_
#define IMOLTP_CORE_EXPERIMENT_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "core/workload.h"
#include "engine/engine.h"
#include "mcsim/machine.h"
#include "mcsim/profiler.h"
#include "obs/histogram.h"
#include "obs/host_metrics.h"
#include "obs/span.h"

namespace imoltp::core {

/// How the per-worker transaction loops interleave. Both modes run every
/// worker on the calling thread and repeat bit for bit under the same
/// seed; see docs/parallel_execution.md.
enum class ParallelMode {
  /// The default, the reference interleaving: transaction t runs on
  /// worker 0, then 1, ... then W-1 before t+1 starts. Transactions
  /// never overlap.
  kSerial,
  /// Workers run as coroutines, and a scheduler seeded from the run
  /// seed picks the next worker at every TxnContext operation boundary.
  /// Transactions overlap, so lock conflicts, MVCC validation failures
  /// and checkpoint races happen, at the same points in every run.
  kInterleaved,
};

const char* ParallelModeName(ParallelMode mode);

/// Parses a CLI mode name ("serial", "interleaved") — the single spelling
/// authority for every tool with a --mode flag. Returns false on an
/// unknown name.
bool ParseParallelMode(const std::string& name, ParallelMode* out);

/// The valid ParseParallelMode spellings, space-separated, for error
/// messages.
const char* ParallelModeChoices();

/// Auto-warmup convergence verdict over a window's sampled time-series:
/// compares first- and second-half IPC across every worker core's
/// buckets. `checked` stays false (and `converged` true) when sampling
/// was off or no core produced at least two buckets — an empty or
/// single-bucket series can't show a trend, so it never flags.
mcsim::ConvergenceCheck CheckConvergence(const mcsim::WindowReport& report,
                                         double rtol);

/// Retry policy for aborted transactions (no-wait 2PL conflicts, MVCC
/// validation failures). Each retry re-executes the *same* logical
/// transaction — the worker's RNG is rewound to its pre-attempt state —
/// after a bounded exponential backoff, CCBench-style. Crashed
/// transactions (injected faults) are never retried: a dead process
/// retries nothing.
struct RetryPolicy {
  /// Total executions allowed per transaction (1 = no retry).
  int max_attempts = 1;
  /// Backoff before retry k (1-based) is backoff_cycles << (k-1)
  /// simulated instructions on the worker's core.
  uint64_t backoff_cycles = 0;
  /// Admission cap: at most this many workers may be in retry mode at
  /// once; excess retries are rejected (the transaction stays aborted)
  /// so a contention storm degrades to load-shedding, not livelock.
  int max_inflight_retries = 4;
};

/// Retry-path counters for the most recent measurement window.
struct RetryStats {
  uint64_t retries = 0;           // re-executions performed
  uint64_t retry_successes = 0;   // txns committed after >= 1 retry
  uint64_t retry_rejections = 0;  // retries denied by the admission cap
};

/// Optional callouts into the runner's build/run lifecycle.
struct ExperimentHooks {
  /// Runs after the machine and engine exist (module table registered,
  /// zero counters, cold caches) but before the database is populated
  /// and the caches warmed — the only point where a TraceWriter can
  /// open and attach so that every simulated event reaches the trace.
  /// A failure aborts Create().
  std::function<Status(mcsim::MachineSim*)> pre_populate;
  /// Runs after the warm-up loop, before the profiler attaches. A
  /// failure aborts that Run() call.
  std::function<Status(mcsim::MachineSim*)> post_warmup;
};

/// Everything that parameterizes one measured run: the engine archetype,
/// worker count (== simulated cores == partitions for the partitioned
/// engines), warm-up and measurement windows (per worker), the
/// engine/machine options, and the host-parallelism mode.
struct ExperimentConfig {
  engine::EngineKind engine = engine::EngineKind::kShoreMt;
  int num_workers = 1;
  uint64_t warmup_txns = 2000;   // per worker, profiler detached
  uint64_t measure_txns = 6000;  // per worker, profiler attached
  uint64_t seed = 42;
  ParallelMode parallel_mode = ParallelMode::kSerial;
  RetryPolicy retry;
  engine::EngineOptions engine_options;
  mcsim::MachineConfig machine_config;
  ExperimentHooks hooks;

  /// Periodic counter sampling for the measurement window
  /// (every_cycles == 0 keeps it off; see mcsim/sampler.h). Armed just
  /// before each window and disarmed after it, so warm-up never pays
  /// the sampling check.
  mcsim::SamplerConfig sampler;
  /// Tolerance of the auto-warmup convergence check over the sampled
  /// series: the window is flagged unconverged when first- and
  /// second-half IPC diverge by more than this relative amount.
  double convergence_rtol = 0.10;
};

/// Builds a machine + engine + populated database once and runs measured
/// windows against it — the paper's populate → warm up → attach VTune →
/// measure methodology (Section 3). Multiple windows may run on one
/// runner (e.g., the read-only and read-write micro-benchmark variants
/// share a populated database).
class ExperimentRunner {
 public:
  /// Creates the engine, runs the pre_populate hook (if any), and
  /// populates the database from `schema_source`'s table definitions.
  /// Returns the first failure instead of a runner.
  static StatusOr<std::unique_ptr<ExperimentRunner>> Create(
      const ExperimentConfig& config, Workload* schema_source);

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Warm-up (profiler detached) then measurement window (attached).
  /// Returns the paper's per-worker-averaged metrics, or the first
  /// post_warmup hook failure. A single worker always runs kSerial.
  StatusOr<mcsim::WindowReport> Run(Workload* workload);

  engine::Engine* engine() { return engine_.get(); }
  mcsim::MachineSim* machine() { return machine_.get(); }
  uint64_t aborts() const { return aborts_; }

  /// Aborted attempts of the most recent measurement window, by cause
  /// (also embedded in the returned WindowReport).
  const mcsim::AbortBreakdown& abort_breakdown() const {
    return breakdown_;
  }
  /// Retry-path counters of the most recent measurement window.
  const RetryStats& retry_stats() const { return retry_stats_; }
  /// Transactions that committed in the most recent measurement window
  /// (summed over workers; counts final successes, not attempts).
  uint64_t committed() const { return committed_; }

  /// Attaches a trace sink to the machine (nullptr detaches) and makes
  /// Run() bracket each measurement window with window markers, so a
  /// replay can reproduce the WindowReport. Attach before the first
  /// Run(): capture determinism assumes cold caches and zero counters.
  /// Either mode gives one totally-ordered event stream.
  void set_trace_sink(mcsim::TraceSink* sink) {
    trace_sink_ = sink;
    machine_->SetTraceSink(sink);
  }

  /// Per-transaction simulated-cycle latencies of the most recent
  /// measurement window (aborted transactions included — their retry
  /// cost is exactly the tail the averages hide).
  const obs::LatencyHistogram& latency_histogram() const {
    return latency_;
  }

  /// Lifecycle-span cycles of the most recent measurement window,
  /// summed over workers.
  const obs::SpanCollector& spans() const {
    return *engine_->span_collector();
  }

  /// Host-side self-observability of the most recent Run(): wall-clock
  /// per phase (populate is Create()'s share), simulated references and
  /// instructions retired per host second across the measurement
  /// window, and peak RSS. Never deterministic — excluded from every
  /// replay/fingerprint comparison (see docs/OBSERVABILITY.md).
  const obs::HostPerf& host_perf() const { return host_perf_; }

 private:
  explicit ExperimentRunner(const ExperimentConfig& config);

  /// Builds machine + engine, runs hooks.pre_populate, populates.
  Status Init(Workload* schema_source);

  /// Raw module×transaction-type cycle accumulator behind
  /// WindowReport::txn_module_matrix. Indexed [type][module].
  struct TxnMatrixAcc {
    std::vector<uint64_t> counts;  // transactions per type, any outcome
    std::vector<std::array<double, mcsim::kMaxModules>> cycles;

    void Resize(int types) {
      counts.assign(types, 0);
      cycles.assign(types, {});
    }
  };

  /// Runs `txns` transactions per worker under `mode`. When `measure`
  /// is set, per-transaction latencies land in latency_ and failures
  /// in aborts_. An injected crash halts the phase: no worker starts
  /// another transaction, and under kInterleaved the suspended ones
  /// finish the transaction they are in.
  void RunPhase(Workload* workload, ParallelMode mode, uint64_t txns,
                std::vector<Rng>* rngs, bool measure);

  /// Converts the raw matrix_ accumulator into the report's
  /// txn_module_matrix rows (names from the workload, module identities
  /// from the machine's registry).
  void AttachTxnMatrix(Workload* workload,
                       mcsim::WindowReport* report) const;

  ExperimentConfig config_;
  std::unique_ptr<mcsim::MachineSim> machine_;
  std::unique_ptr<engine::Engine> engine_;
  obs::LatencyHistogram latency_;
  mcsim::TraceSink* trace_sink_ = nullptr;
  uint64_t aborts_ = 0;
  uint64_t runs_ = 0;
  mcsim::AbortBreakdown breakdown_;
  RetryStats retry_stats_;
  uint64_t committed_ = 0;
  TxnMatrixAcc matrix_;
  int inflight_retries_ = 0;
  obs::HostPerf host_perf_;
  /// Flow ids linking retry attempts of one logical transaction in the
  /// timeline export. Only drawn while a TimelineRecorder is attached.
  uint64_t next_flow_id_ = 1;
};

/// One-shot convenience: build, populate, run.
StatusOr<mcsim::WindowReport> RunExperiment(const ExperimentConfig& config,
                                            Workload* workload);

}  // namespace imoltp::core

#endif  // IMOLTP_CORE_EXPERIMENT_H_
