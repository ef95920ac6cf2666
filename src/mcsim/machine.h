#ifndef IMOLTP_MCSIM_MACHINE_H_
#define IMOLTP_MCSIM_MACHINE_H_

#include <memory>
#include <vector>

#include "mcsim/cache.h"
#include "mcsim/code_region.h"
#include "mcsim/config.h"
#include "mcsim/core.h"

namespace imoltp::mcsim {

/// The whole simulated machine: N cores with private L1I/L1D/L2 plus one
/// shared LLC, mirroring Table 1 of the paper.
///
/// One host thread drives a machine and its engine
/// (docs/parallel_execution.md): core verbs are totally ordered, so
/// cross-core invalidation pokes sibling caches directly and nothing
/// here takes a lock.
class MachineSim {
 public:
  explicit MachineSim(const MachineConfig& config = MachineConfig());

  MachineSim(const MachineSim&) = delete;
  MachineSim& operator=(const MachineSim&) = delete;

  CoreSim& core(int i) { return *cores_[i]; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  Cache& llc() { return llc_; }
  const MachineConfig& config() const { return config_; }
  ModuleRegistry& modules() { return modules_; }
  const ModuleRegistry& modules() const { return modules_; }
  CodeSpace& code_space() { return code_space_; }

  /// Invalidates `line` in every private cache except `writer_core`'s.
  /// Called on writes when more than one core is simulated.
  /// Invalidating an absent line is a no-op and touches no counter, so
  /// no presence check comes first.
  void InvalidateOthers(uint64_t line, int writer_core) {
    for (auto& core : cores_) {
      if (core->core_id() != writer_core) core->InvalidateLine(line);
    }
  }

  void SetEnabled(bool enabled) {
    for (auto& core : cores_) core->set_enabled(enabled);
  }

  /// Attaches `sink` to every core (nullptr detaches). On attach, each
  /// core's current module is snapshotted into the sink so replay
  /// starts from identical attribution state. Capture determinism
  /// assumes the machine is otherwise pristine at attach time (cold
  /// caches, zeroed counters) — attach before the first measured run.
  void SetTraceSink(TraceSink* sink) {
    for (auto& core : cores_) {
      if (sink != nullptr) {
        sink->OnSetModule(core->core_id(), core->module());
      }
      core->set_trace_sink(sink);
    }
  }

  /// Arms periodic counter sampling on every core (see mcsim/sampler.h)
  /// or disarms it everywhere (config.every_cycles == 0).
  void ArmSampler(const SamplerConfig& config) {
    for (auto& core : cores_) core->ArmSampler(config);
  }

  /// The armed sampler of core `i`, or nullptr when sampling is off.
  CoreSampler* sampler(int i) { return cores_[i]->sampler(); }
  const CoreSampler* sampler(int i) const { return cores_[i]->sampler(); }

  /// Sums per-core counters (used for machine-wide sanity checks; figures
  /// report per-worker averages through the profiler instead).
  CoreCounters TotalCounters() const;

  /// Drops all cache state and counters on every core and the LLC.
  void Reset();

 private:
  MachineConfig config_;
  Cache llc_;
  std::vector<std::unique_ptr<CoreSim>> cores_;
  ModuleRegistry modules_;
  CodeSpace code_space_;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_MACHINE_H_
