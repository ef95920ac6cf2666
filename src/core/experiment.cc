#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/seed.h"
#include "core/interleaver.h"
#include "fault/fault_injector.h"
#include "obs/timeline.h"

namespace imoltp::core {

namespace {

/// Buckets one abort Status by cause, using the engines' stable abort
/// message vocabulary (see docs/robustness.md).
void ClassifyAbort(const Status& s, mcsim::AbortBreakdown* b) {
  ++b->total;
  const std::string& m = s.message();
  if (m.find("injected") != std::string::npos) {
    ++b->injected_fault;
  } else if (m.find("lock conflict") != std::string::npos ||
             m.find("upgrade") != std::string::npos) {
    ++b->lock_conflict;
  } else if (m.find("validation") != std::string::npos ||
             m.find("write-write") != std::string::npos) {
    ++b->validation;
  } else if (m.find("partition") != std::string::npos) {
    ++b->partition;
  } else {
    ++b->other;
  }
}

}  // namespace

/// Aggregates instructions and model cycles over the first- and
/// second-half buckets of every worker core's sampled series, then
/// compares the two halves' IPC. A window that was still warming up
/// (caches ramping, a contention storm draining) shows a first half
/// measurably slower or faster than its second.
mcsim::ConvergenceCheck CheckConvergence(const mcsim::WindowReport& r,
                                         double rtol) {
  mcsim::ConvergenceCheck check;
  check.tolerance = rtol;
  double instr[2] = {0.0, 0.0};
  double cycles[2] = {0.0, 0.0};
  for (const mcsim::CoreSeries& series : r.timeseries) {
    const size_t n = series.buckets.size();
    if (n < 2) continue;
    check.checked = true;
    for (size_t i = 0; i < n; ++i) {
      const int half = i < n / 2 ? 0 : 1;
      instr[half] += static_cast<double>(series.buckets[i].instructions);
      cycles[half] += series.buckets[i].model_cycles;
    }
  }
  if (!check.checked) return check;
  if (cycles[0] > 0) check.first_half_ipc = instr[0] / cycles[0];
  if (cycles[1] > 0) check.second_half_ipc = instr[1] / cycles[1];
  if (check.second_half_ipc > 0) {
    check.divergence =
        std::abs(check.first_half_ipc - check.second_half_ipc) /
        check.second_half_ipc;
  }
  check.converged = check.divergence <= rtol;
  return check;
}

const char* ParallelModeName(ParallelMode mode) {
  switch (mode) {
    case ParallelMode::kSerial:
      return "serial";
    case ParallelMode::kInterleaved:
      return "interleaved";
  }
  return "?";
}

bool ParseParallelMode(const std::string& name, ParallelMode* out) {
  if (name == "serial") return *out = ParallelMode::kSerial, true;
  if (name == "interleaved") {
    return *out = ParallelMode::kInterleaved, true;
  }
  return false;
}

const char* ParallelModeChoices() { return "serial interleaved"; }

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config)
    : config_(config) {}

StatusOr<std::unique_ptr<ExperimentRunner>> ExperimentRunner::Create(
    const ExperimentConfig& config, Workload* schema_source) {
  std::unique_ptr<ExperimentRunner> runner(new ExperimentRunner(config));
  const Status s = runner->Init(schema_source);
  if (!s.ok()) return s;
  return runner;
}

Status ExperimentRunner::Init(Workload* schema_source) {
  obs::PhaseTimer populate_timer(&host_perf_.populate_seconds);
  mcsim::MachineConfig mc = config_.machine_config;
  mc.num_cores = config_.num_workers;
  machine_ = std::make_unique<mcsim::MachineSim>(mc);

  engine::EngineOptions opts = config_.engine_options;
  opts.num_partitions = config_.num_workers;
  engine_ = engine::CreateEngine(config_.engine, machine_.get(), opts);

  if (config_.hooks.pre_populate) {
    const Status s = config_.hooks.pre_populate(machine_.get());
    if (!s.ok()) return s;
  }
  return engine_->CreateDatabase(schema_source->Tables());
}

void ExperimentRunner::RunPhase(Workload* workload, ParallelMode mode,
                                uint64_t txns, std::vector<Rng>* rngs,
                                bool measure) {
  const int workers = config_.num_workers;
  const mcsim::CycleModelParams& params = machine_->config().cycle;
  fault::FaultInjector* inj = config_.engine_options.fault_injector;
  const int max_attempts = std::max(1, config_.retry.max_attempts);
  const int retry_cap = std::max(0, config_.retry.max_inflight_retries);

  // A latched injected crash halts the phase: once any worker's engine
  // call crashed, no worker starts another transaction (a crashed
  // process executes nothing). Initialized from the injector so a crash
  // in the warm-up phase also empties the measurement window.
  bool halt = inj != nullptr && inj->crash_pending();

  // Retry attempts are sliced onto the timeline (with a shared flow id
  // per logical transaction) only while a recorder is attached to the
  // measured window — warm-up and recorder-less runs pay nothing.
  obs::TimelineRecorder* recorder =
      measure ? engine_->span_collector()->recorder() : nullptr;

  // One worker-transaction, including its retry loop. The latency
  // sample covers every attempt plus backoff — the retry tail is
  // exactly what the per-attempt averages would hide.
  auto body = [&](int w) {
    Rng* rng = &(*rngs)[w];
    mcsim::CoreSim* core = &machine_->core(w);
    // Full snapshot (per-module array included) so the final-outcome
    // delta can feed both the latency histogram and the module×txn-type
    // matrix. Warm-up skips the copy.
    const mcsim::CoreCounters before =
        measure ? core->counters() : mcsim::CoreCounters{};
    bool committed_txn = false;
    bool holds_retry_token = false;
    std::vector<obs::AttemptEvent> attempt_log;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      const double attempt_t0 =
          recorder != nullptr
              ? mcsim::SimulatedCycles(core->counters(), params)
              : 0.0;
      // Snapshot the RNG so a retry re-executes the same logical
      // transaction (same keys, same values) rather than a fresh draw.
      const Rng snapshot = *rng;
      const Status s = workload->RunTransaction(engine_.get(), w, rng);
      if (recorder != nullptr) {
        obs::AttemptEvent ev;
        ev.attempt = attempt;
        ev.committed = s.ok();
        ev.t0 = attempt_t0;
        ev.t1 = mcsim::SimulatedCycles(core->counters(), params);
        attempt_log.push_back(ev);
      }
      if (s.ok()) {
        committed_txn = true;
        if (measure) {
          ++committed_;
          if (attempt > 1) ++retry_stats_.retry_successes;
        }
        break;
      }
      if (measure) {
        ++aborts_;
        ClassifyAbort(s, &breakdown_);
      }
      // A crashed process retries nothing.
      if (inj != nullptr && inj->crash_pending()) break;
      if (attempt >= max_attempts) break;
      if (!holds_retry_token) {
        // Admission cap: bounded concurrent retriers, or load-shed.
        if (inflight_retries_ >= retry_cap) {
          if (measure) ++retry_stats_.retry_rejections;
          break;
        }
        ++inflight_retries_;
        holds_retry_token = true;
      }
      // Bounded exponential backoff, charged to the worker's core.
      if (config_.retry.backoff_cycles > 0) {
        core->Retire(config_.retry.backoff_cycles
                     << std::min(attempt - 1, 16));
      }
      *rng = snapshot;
      if (measure) ++retry_stats_.retries;
    }
    if (holds_retry_token) --inflight_retries_;
    // Single-attempt transactions draw no flow id: flow arrows only
    // mean something when there is a second slice to point at.
    if (recorder != nullptr && attempt_log.size() > 1) {
      const uint64_t flow = next_flow_id_++;
      for (obs::AttemptEvent& ev : attempt_log) {
        ev.flow_id = flow;
        recorder->RecordAttempt(w, ev);
      }
    }
    if (inj != nullptr && inj->crash_pending()) halt = true;
    // Mark the final outcome on the core so the sampled time-series can
    // report abort rate per bucket (cycle-model neutral: aborted_txns
    // feeds no cycle math).
    if (!committed_txn) core->CountAbort();
    if (measure) {
      const mcsim::CoreCounters& after = core->counters();
      latency_.Add(mcsim::SimulatedCycles(
          mcsim::AggregateCounters(after) - mcsim::AggregateCounters(before),
          params));
      // Module×txn-type attribution: the whole final-outcome delta
      // (every attempt plus backoff) lands on this transaction's type.
      // Only registered modules count anything (a compiled engine may
      // register one during the transaction); the rest would add +0.0.
      const int type = workload->LastTransactionType(w);
      if (type >= 0 && static_cast<size_t>(type) < matrix_.counts.size()) {
        ++matrix_.counts[type];
        const int modules = machine_->modules().size();
        for (int m = 0; m < modules; ++m) {
          matrix_.cycles[type][m] += mcsim::SimulatedCycles(
              after.per_module[m] - before.per_module[m], params);
        }
      }
    }
    // Checkpoint cadence: one tick per worker-transaction boundary (a
    // no-op unless the engine was built with checkpointing enabled).
    // A crashed process captures and truncates nothing further.
    if (inj == nullptr || !inj->crash_pending()) {
      engine_->CheckpointTick(w);
    }
  };

  if (mode == ParallelMode::kSerial) {
    for (uint64_t t = 0; t < txns; ++t) {
      for (int w = 0; w < workers; ++w) {
        if (halt) return;
        body(w);
      }
    }
    return;
  }

  // kInterleaved: each worker's loop is a coroutine on this thread, and
  // the engine hands control to the scheduler before every operation.
  Interleaver scheduler(workers,
                        DeriveSeed2(config_.seed, runs_, measure ? 1 : 0,
                                    SeedStream::kScheduler));
  engine_->set_op_hook([&scheduler] { scheduler.Yield(); });
  scheduler.Run([&](int w) {
    for (uint64_t t = 0; t < txns && !halt; ++t) {
      // Simulated worker-core death: this worker stops issuing
      // transactions; the rest of the fleet keeps running.
      if (inj != nullptr && inj->Fires(fault::kCoreDeath)) return;
      body(w);
    }
  });
  engine_->set_op_hook(nullptr);
}

StatusOr<mcsim::WindowReport> ExperimentRunner::Run(Workload* workload) {
  const int workers = config_.num_workers;
  std::vector<Rng> rngs;
  rngs.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    rngs.emplace_back(DeriveSeed2(config_.seed, runs_,
                                  static_cast<uint64_t>(i),
                                  SeedStream::kWorker));
  }
  ++runs_;

  // A single worker has nothing to interleave.
  const ParallelMode mode =
      workers <= 1 ? ParallelMode::kSerial : config_.parallel_mode;

  // Host self-observability for this Run: warm-up accumulates across
  // calls, the measurement fields cover the newest window only.
  host_perf_.parallel_mode = ParallelModeName(mode);

  // Warm-up: simulation on (caches fill), profiler not yet attached.
  {
    obs::PhaseTimer warmup_timer(&host_perf_.warmup_seconds);
    RunPhase(workload, mode, config_.warmup_txns, &rngs,
             /*measure=*/false);
  }

  if (config_.hooks.post_warmup) {
    const Status s = config_.hooks.post_warmup(machine_.get());
    if (!s.ok()) return s;
  }

  // Measurement window, filtered to the worker cores. Lifecycle spans
  // and the latency histogram cover exactly the same window.
  mcsim::Profiler profiler(machine_.get());
  std::vector<int> cores;
  for (int w = 0; w < workers; ++w) cores.push_back(w);
  engine_->span_collector()->Reset();
  latency_.Reset();
  breakdown_ = mcsim::AbortBreakdown{};
  retry_stats_ = RetryStats{};
  committed_ = 0;
  matrix_.Resize(workload->NumTransactionTypes());
  // Periodic sampling covers exactly the measurement window: armed
  // here (warm-up never pays the per-retire check) and disarmed after
  // EndWindow has drained the rings.
  machine_->ArmSampler(config_.sampler);
  if (trace_sink_ != nullptr) trace_sink_->OnWindowMark(/*begin=*/true);
  profiler.BeginWindow(cores);
  const mcsim::CoreCounters window_start = machine_->TotalCounters();
  const double wall_start = obs::MonotonicSeconds();
  RunPhase(workload, mode, config_.measure_txns, &rngs, /*measure=*/true);
  const double wall = obs::MonotonicSeconds() - wall_start;
  const mcsim::CoreCounters work =
      machine_->TotalCounters() - window_start;
  if (trace_sink_ != nullptr) trace_sink_->OnWindowMark(/*begin=*/false);
  mcsim::WindowReport report = profiler.EndWindow();
  machine_->ArmSampler(mcsim::SamplerConfig{});
  report.aborts = breakdown_;

  // Host-side throughput of the window: simulated references (code-line
  // fetches + data accesses — the unit the raw-speed ROADMAP item
  // tracks) and retired instructions per host second.
  host_perf_.measure_seconds = wall;
  host_perf_.simulated_refs =
      work.code_line_fetches + work.data_accesses;
  host_perf_.simulated_instructions = work.instructions;
  if (wall > 0) {
    host_perf_.refs_per_second =
        static_cast<double>(host_perf_.simulated_refs) / wall;
    host_perf_.instructions_per_second =
        static_cast<double>(work.instructions) / wall;
    host_perf_.txns_per_second = static_cast<double>(committed_) / wall;
  }
  host_perf_.peak_rss_bytes = obs::PeakRssBytes();
  report.convergence = CheckConvergence(report, config_.convergence_rtol);
  AttachTxnMatrix(workload, &report);
  return report;
}

void ExperimentRunner::AttachTxnMatrix(Workload* workload,
                                       mcsim::WindowReport* report) const {
  const mcsim::ModuleRegistry& modules = machine_->modules();
  double matrix_total = 0.0;
  for (const auto& row : matrix_.cycles) {
    for (double c : row) matrix_total += c;
  }
  for (size_t t = 0; t < matrix_.counts.size(); ++t) {
    if (matrix_.counts[t] == 0) continue;
    mcsim::TxnTypeShare row;
    row.txn_type = workload->TransactionTypeName(static_cast<int>(t));
    row.count = matrix_.counts[t];
    for (int m = 0; m < modules.size() && m < mcsim::kMaxModules; ++m) {
      if (matrix_.cycles[t][m] <= 0) continue;
      mcsim::ModuleShare share;
      share.name = modules.info(m).name;
      share.inside_engine = modules.info(m).inside_engine;
      share.cycles = matrix_.cycles[t][m];
      row.cycles += share.cycles;
      row.modules.push_back(std::move(share));
    }
    for (auto& share : row.modules) {
      share.fraction = row.cycles > 0 ? share.cycles / row.cycles : 0.0;
    }
    row.fraction = matrix_total > 0 ? row.cycles / matrix_total : 0.0;
    report->txn_module_matrix.push_back(std::move(row));
  }
}

StatusOr<mcsim::WindowReport> RunExperiment(const ExperimentConfig& config,
                                            Workload* workload) {
  auto runner = ExperimentRunner::Create(config, workload);
  if (!runner.ok()) return runner.status();
  return (*runner)->Run(workload);
}

}  // namespace imoltp::core
