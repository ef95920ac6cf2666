#ifndef IMOLTP_MCSIM_SAMPLER_H_
#define IMOLTP_MCSIM_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsim/config.h"
#include "mcsim/counters.h"

namespace imoltp::mcsim {

/// Periodic counter sampling (docs/OBSERVABILITY.md, "Time-resolved
/// profiling").
///
/// The sample clock is the RETIREMENT clock — cumulative base cycles
/// (instructions x inherent CPI) — not the full cycle model. Base
/// cycles are placement-independent: they depend only on the retired
/// instruction stream, never on where the host allocator happened to
/// put a table. The same seed and ParallelMode therefore yield
/// bit-identical sample boundaries and bit-identical retired-work
/// columns run after run, while the miss-derived columns carry only
/// the same address-placement noise every cross-run comparison in this
/// repo already tolerates (docs/parallel_execution.md).
struct SamplerConfig {
  /// Sample period on the retirement clock, in simulated base cycles.
  /// 0 = sampling disabled.
  uint64_t every_cycles = 0;
  /// Ring capacity per core. When a window produces more samples the
  /// oldest are overwritten (dropped() counts them) — the tail of the
  /// window survives, which is the steady-state end a convergence
  /// check cares about.
  size_t capacity = 4096;
  /// Also snapshot per-module modeled cycles at every sample, so the
  /// time-series (and the Perfetto export) carries one counter track
  /// per code module. Off by default: it multiplies the per-sample cost
  /// by kMaxModules and the ring footprint by ~5×.
  bool per_module = false;
};

/// One snapshot of a core's cumulative aggregate counters. Compact on
/// purpose: the full per-module counter array is not sampled (module
/// attribution stays whole-window — see WindowReport::txn_module_matrix)
/// so a 4096-deep ring costs ~0.5MB per core, not ~20MB. With
/// SamplerConfig::per_module the *modeled cycles* per module (one
/// double each) are additionally snapshotted — enough for per-module
/// timeline tracks at ~5× the footprint, still far from the full array.
struct CounterSample {
  double retire_cycles = 0.0;  // base_cycles at snapshot (sample clock)
  double model_cycles = 0.0;   // full cycle-model time at snapshot
  uint64_t instructions = 0;
  uint64_t transactions = 0;
  uint64_t aborted_txns = 0;
  uint64_t mispredictions = 0;
  uint64_t tlb_misses = 0;
  LevelMisses misses;
  /// Cumulative modeled cycles per module id. Empty unless the sampler
  /// was armed with per_module; sized kMaxModules otherwise.
  std::vector<double> module_cycles;
};

/// Per-core sample ring: its core's retirement clock is the only
/// writer; readers (profiler, timeline writer) run between phases.
class CoreSampler {
 public:
  CoreSampler(const SamplerConfig& config, const CycleModelParams* params)
      : every_(config.every_cycles > 0 ? config.every_cycles : 1),
        params_(params),
        per_module_(config.per_module),
        ring_(config.capacity > 0 ? config.capacity : 1) {}

  /// Fast path, called from CoreSim::RetireInternal — one double
  /// compare per retire when armed, nothing at all when the core holds
  /// no sampler pointer.
  void MaybeSample(const CoreCounters& c) {
    if (c.base_cycles < next_at_) return;
    TakeSample(c);
  }

  /// Total samples ever taken (monotonic; survives ring wrap-around).
  uint64_t seq() const { return seq_; }
  /// Samples overwritten by ring wrap-around.
  uint64_t dropped() const {
    return seq_ > ring_.size() ? seq_ - ring_.size() : 0;
  }
  uint64_t every_cycles() const { return every_; }
  bool per_module() const { return per_module_; }

  /// Samples with sequence number >= `since`, oldest first. Sequence
  /// numbers already evicted from the ring are silently absent.
  std::vector<CounterSample> SamplesSince(uint64_t since) const {
    std::vector<CounterSample> out;
    const uint64_t lo =
        seq_ > ring_.size() ? seq_ - ring_.size() : 0;
    const uint64_t first = since > lo ? since : lo;
    for (uint64_t s = first; s < seq_; ++s) {
      out.push_back(ring_[s % ring_.size()]);
    }
    return out;
  }

  /// Rewinds the ring and re-phases the sample clock to `c`'s current
  /// retirement time (the profiler does this at window begin so bucket
  /// boundaries are window-relative, not machine-lifetime-relative).
  void Restart(const CoreCounters& c) {
    seq_ = 0;
    next_at_ = c.base_cycles + static_cast<double>(every_);
  }

 private:
  void TakeSample(const CoreCounters& c) {
    // One sample per crossing; a single huge retire burst advances the
    // clock past several periods without emitting duplicate snapshots.
    do {
      next_at_ += static_cast<double>(every_);
    } while (c.base_cycles >= next_at_);
    CounterSample& s = ring_[seq_ % ring_.size()];
    s.retire_cycles = c.base_cycles;
    s.model_cycles = SimulatedCycles(c, *params_);
    s.instructions = c.instructions;
    s.transactions = c.transactions;
    s.aborted_txns = c.aborted_txns;
    s.mispredictions = c.mispredictions;
    s.tlb_misses = c.tlb_misses;
    s.misses = c.misses;
    if (per_module_) {
      s.module_cycles.resize(kMaxModules);
      for (int m = 0; m < kMaxModules; ++m) {
        s.module_cycles[m] = SimulatedCycles(c.per_module[m], *params_);
      }
    }
    ++seq_;
  }

  uint64_t every_;
  const CycleModelParams* params_;
  bool per_module_;
  std::vector<CounterSample> ring_;
  uint64_t seq_ = 0;
  double next_at_ = 0.0;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_SAMPLER_H_
