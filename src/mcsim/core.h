#ifndef IMOLTP_MCSIM_CORE_H_
#define IMOLTP_MCSIM_CORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mcsim/cache.h"
#include "mcsim/code_region.h"
#include "mcsim/config.h"
#include "mcsim/counters.h"
#include "mcsim/sampler.h"
#include "mcsim/trace_sink.h"

namespace imoltp::mcsim {

class MachineSim;

/// One simulated hardware context: private L1I/L1D and unified L2, a
/// pointer to the machine-shared LLC, and the per-core event counters.
///
/// Engines drive a core through four verbs:
///   - ExecuteRegion(region): instruction-side — fetch code lines, retire
///     instructions, generate branch mispredictions.
///   - Read/Write(addr, size): data-side — walk the touched cache lines
///     through L1D → L2 → LLC; writes invalidate sibling cores' copies.
///   - Retire(n): extra instructions not tied to a region (loop bodies of
///     data operations).
///   - BeginTransaction(): transaction boundary for per-txn metrics.
///
/// When `enabled()` is false every verb is a no-op; the harness disables
/// simulation during bulk population (the paper attaches VTune only after
/// populating and warming up).
class CoreSim {
 public:
  CoreSim(const MachineConfig& config, MachineSim* machine, int core_id);

  CoreSim(const CoreSim&) = delete;
  CoreSim& operator=(const CoreSim&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void SetModule(ModuleId module) {
    if (trace_ != nullptr && module != module_) {
      trace_->OnSetModule(core_id_, module);
    }
    module_ = module;
  }
  ModuleId module() const { return module_; }

  /// Observer of the simulated event stream (nullptr = none). Set via
  /// MachineSim::SetTraceSink, which also snapshots module state.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Executes a code region: fetches its window of i-cache lines and
  /// retires its instruction count. See CodeRegion for the model.
  void ExecuteRegion(const CodeRegion& region) {
    if (!enabled_) return;
    uint64_t start = region.base_line;
    if (region.total_lines > region.touched_lines) {
      const uint32_t span = region.total_lines - region.touched_lines + 1;
      start += NextWindow() % span;
    }
    if (trace_ != nullptr) {
      trace_->OnExecuteRegion(core_id_, region, start);
    }
    ExecuteRegionAt(region, start);
  }

  /// Executes `region` with its fetch window pinned at `start` (line
  /// address). Live execution funnels through here after choosing the
  /// window; trace replay calls it directly with the recorded window so
  /// the replayed fetch stream is bit-identical.
  void ExecuteRegionAt(const CodeRegion& region, uint64_t start) {
    if (!enabled_) return;
    const ModuleId saved = module_;
    module_ = region.module;
    counters_.code_line_fetches += region.touched_lines;
    const uint64_t end = start + region.touched_lines;
    for (uint64_t line = start; line < end; ++line) {
      if (!l1i_.Access(line)) FetchCodeMiss(line);
    }
    double cpi = region.cpi > 0 ? region.cpi : default_cpi_;
    if (cpi < cpi_floor_) cpi = cpi_floor_;
    RetireInternal(region.instructions, cpi);
    if (region.mispredicts_per_kinstr > 0) {
      mispredict_acc_ +=
          region.instructions * region.mispredicts_per_kinstr / 1000.0;
      const uint64_t whole = static_cast<uint64_t>(mispredict_acc_);
      if (whole > 0) {
        mispredict_acc_ -= static_cast<double>(whole);
        counters_.mispredictions += whole;
        counters_.per_module[module_].mispredictions += whole;
      }
    }
    module_ = saved;
  }

  /// Data read of `size` bytes at `addr` (any alignment).
  void Read(uint64_t addr, uint32_t size) {
    if (!enabled_) return;
    if (trace_ != nullptr) trace_->OnRead(core_id_, addr, size);
    AccessData(addr, size, /*is_write=*/false);
  }

  /// Data write of `size` bytes at `addr`. Invalidates sibling copies.
  void Write(uint64_t addr, uint32_t size) {
    if (!enabled_) return;
    if (trace_ != nullptr) trace_->OnWrite(core_id_, addr, size);
    AccessData(addr, size, /*is_write=*/true);
  }

  /// Retires `n` instructions outside any code region (e.g., the compare
  /// loop of a key comparison).
  void Retire(uint64_t n) {
    if (!enabled_) return;
    if (trace_ != nullptr) trace_->OnRetire(core_id_, n);
    RetireInternal(n, default_cpi_ < cpi_floor_ ? cpi_floor_
                                                : default_cpi_);
  }

  /// Charges `cycles` of off-core wait (e.g. simulated network latency
  /// while a cross-node fragment waits for its ordering message) to
  /// this core: the retirement clock advances with no instructions
  /// retired, so waiting lowers IPC instead of inflating instruction
  /// counts the way a busy-wait Retire() would.
  void Stall(double cycles) {
    if (!enabled_) return;
    counters_.base_cycles += cycles;
    counters_.per_module[module_].base_cycles += cycles;
    if (sampler_ != nullptr) sampler_->MaybeSample(counters_);
  }

  /// Records `n` branch mispredictions.
  void Mispredict(uint64_t n) {
    if (!enabled_) return;
    if (trace_ != nullptr) trace_->OnMispredict(core_id_, n);
    counters_.mispredictions += n;
    counters_.per_module[module_].mispredictions += n;
  }

  void BeginTransaction() {
    if (!enabled_) return;
    if (trace_ != nullptr) trace_->OnBeginTransaction(core_id_);
    ++counters_.transactions;
  }

  /// Marks the transaction the core just finished as aborted (final
  /// outcome, not per attempt). Pure bookkeeping for the sampled
  /// time-series — perturbs no simulated state.
  void CountAbort() {
    if (!enabled_) return;
    ++counters_.aborted_txns;
  }

  /// Arms periodic counter sampling on this core (replacing any prior
  /// sampler) or disarms it (every_cycles == 0). When disarmed the only
  /// residue on the hot path is one well-predicted null check; sampling
  /// itself never writes counters, so armed and disarmed runs retire
  /// identical streams (ctest-enforced, tests/sampling_test.cc).
  void ArmSampler(const SamplerConfig& config);

  /// The armed sampler, or nullptr.
  CoreSampler* sampler() { return sampler_; }
  const CoreSampler* sampler() const { return sampler_; }

  const CoreCounters& counters() const { return counters_; }
  int core_id() const { return core_id_; }

  /// True if `line` is present in any private level.
  bool HoldsLine(uint64_t line) const {
    return l1d_.Contains(line) || l2_.Contains(line) || l1i_.Contains(line);
  }

  void InvalidateLine(uint64_t line) {
    l1d_.Invalidate(line);
    l1i_.Invalidate(line);
    l2_.Invalidate(line);
  }

  /// Lines the stream prefetcher pulled into L2 (0 when disabled).
  uint64_t prefetches_issued() const { return prefetches_issued_; }

  /// Drops all private-cache contents and rewinds counters to zero.
  void Reset();

 private:
  /// An L1I miss on `line`: counts it and fetches through L2 and LLC.
  void FetchCodeMiss(uint64_t line);
  void AccessData(uint64_t addr, uint32_t size, bool is_write);
  void AccessDataLine(uint64_t line, bool is_write);

  void RetireInternal(uint64_t n, double cpi) {
    counters_.instructions += n;
    counters_.per_module[module_].instructions += n;
    const double cycles = static_cast<double>(n) * cpi;
    counters_.base_cycles += cycles;
    counters_.per_module[module_].base_cycles += cycles;
    // The retirement clock only advances here, so this is the one
    // sampling hook the whole core needs.
    if (sampler_ != nullptr) sampler_->MaybeSample(counters_);
  }

  // Small xorshift for window selection; independent of workload RNGs so
  // footprint randomness never perturbs key choice.
  uint64_t NextWindow() {
    window_state_ ^= window_state_ << 13;
    window_state_ ^= window_state_ >> 7;
    window_state_ ^= window_state_ << 17;
    return window_state_;
  }

  CodeCache l1i_;
  Cache l1d_;
  Cache l2_;
  Cache dtlb_;
  Cache stlb_;
  MachineSim* machine_;
  int core_id_;
  bool model_tlb_;
  bool model_prefetcher_;
  uint32_t prefetch_degree_;
  uint64_t last_miss_line_ = 0;
  uint64_t prefetches_issued_ = 0;
  bool in_page_walk_ = false;
  int page_line_shift_;
  double default_cpi_;
  double cpi_floor_;
  bool enabled_ = true;
  TraceSink* trace_ = nullptr;
  std::unique_ptr<CoreSampler> sampler_owned_;
  CoreSampler* sampler_ = nullptr;
  ModuleId module_ = kNoModule;
  double mispredict_acc_ = 0.0;
  uint64_t window_state_;
  CoreCounters counters_;
};

/// RAII module scope: attributes all events inside the scope to `module`.
class ScopedModule {
 public:
  ScopedModule(CoreSim* core, ModuleId module)
      : core_(core), saved_(core->module()) {
    core_->SetModule(module);
  }
  ~ScopedModule() { core_->SetModule(saved_); }

  ScopedModule(const ScopedModule&) = delete;
  ScopedModule& operator=(const ScopedModule&) = delete;

 private:
  CoreSim* core_;
  ModuleId saved_;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CORE_H_
