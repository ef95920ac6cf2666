#ifndef IMOLTP_OBS_SPAN_H_
#define IMOLTP_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "mcsim/core.h"
#include "mcsim/counters.h"

namespace imoltp::obs {

/// Transaction lifecycle phases. These cut across the static code-module
/// breakdown (ModuleRegistry): a span covers everything a phase executes
/// — engine code regions AND the index/storage substrate work inside
/// them — so engines can attribute cycles to *what the transaction was
/// doing*, not just *whose code was running*.
enum class SpanKind : int {
  kIndexProbe = 0,   // index lookup / insert / remove / scan
  kLockAcquire = 1,  // lock-manager or partition-guard traffic
  kLogAppend = 2,    // WAL / command-log serialization and append
  kStorageAccess = 3,  // heap / buffer-pool / version-store row access
};
inline constexpr int kNumSpanKinds = 4;

const char* SpanKindName(SpanKind kind);

class TimelineRecorder;

struct SpanStats {
  double cycles = 0.0;
  uint64_t count = 0;
};

/// Per-engine accumulator of span-attributed simulated cycles.
///
/// Accumulation is striped into one lane per simulated core (a span only
/// ever touches the lane of the core it measures), so interleaved
/// workers keep separate nesting depths. Readers (`stats()`,
/// `total_cycles()`) sum the lanes. Spans never nest effectively: an inner
/// ScopedSpan opened while another is active on the same core records
/// nothing, so summed span cycles never double-count and stay
/// reconcilable with the profiler's window total.
class SpanCollector {
 public:
  explicit SpanCollector(const mcsim::CycleModelParams* params,
                         int num_cores = 1)
      : params_(params),
        lanes_(num_cores > 0 ? static_cast<size_t>(num_cores) : 1) {}

  /// Zeroes every lane; also clears an attached TimelineRecorder, so a
  /// window-start Reset leaves the timeline covering exactly the
  /// window.
  void Reset();

  /// Sum of all lanes for `kind`.
  SpanStats stats(SpanKind kind) const {
    SpanStats total;
    for (const Lane& lane : lanes_) {
      total.cycles += lane.stats[static_cast<int>(kind)].cycles;
      total.count += lane.stats[static_cast<int>(kind)].count;
    }
    return total;
  }

  double total_cycles() const {
    double total = 0.0;
    for (const Lane& lane : lanes_) {
      for (const SpanStats& s : lane.stats) total += s.cycles;
    }
    return total;
  }

  const mcsim::CycleModelParams& params() const { return *params_; }

  /// Attaches a per-core interval recorder (nullptr detaches): every
  /// effective span additionally logs its [start, end) model-cycle
  /// interval for the Perfetto timeline export (obs/timeline.h). Off
  /// by default — the hot path then pays only a null check.
  void set_recorder(TimelineRecorder* recorder) { recorder_ = recorder; }
  TimelineRecorder* recorder() const { return recorder_; }

 private:
  friend class ScopedSpan;

  struct Lane {
    std::array<SpanStats, kNumSpanKinds> stats{};
    int depth = 0;
  };

  Lane& lane_for(const mcsim::CoreSim* core) {
    const size_t id = static_cast<size_t>(core->core_id());
    return lanes_[id < lanes_.size() ? id : 0];
  }

  const mcsim::CycleModelParams* params_;
  std::vector<Lane> lanes_;
  TimelineRecorder* recorder_ = nullptr;
};

/// RAII phase marker. Snapshots the core's aggregate counters on entry
/// and charges the simulated-cycle delta to `kind` on exit. No-op when
/// the core's simulation is disabled (bulk load) or a span is already
/// open on this core's lane.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector* collector, mcsim::CoreSim* core,
             SpanKind kind);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanCollector* collector_;
  mcsim::CoreSim* core_;
  SpanKind kind_;
  bool active_;
  mcsim::ModuleCounters start_;
  double start_model_cycles_ = 0.0;  // only set while a recorder is on
};

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_SPAN_H_
