#ifndef IMOLTP_OBS_HOST_METRICS_H_
#define IMOLTP_OBS_HOST_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace imoltp::obs {

/// Host-side performance self-observability (docs/OBSERVABILITY.md,
/// "Host metrics"). Everything in this header measures the *simulator
/// process* — wall-clock and resident memory — never the
/// simulated machine. Host numbers are inherently non-deterministic, so
/// they are segregated into the report's `host` section, which
/// imoltp_diff ignores entirely and no determinism fingerprint covers.

/// Monotonic wall-clock seconds (CLOCK_MONOTONIC-backed; never jumps on
/// NTP adjustment, so phase deltas are trustworthy).
double MonotonicSeconds();

/// Peak resident set size of the process in bytes (ru_maxrss; 0 where
/// unsupported). Monotonic over the process lifetime — per-phase deltas
/// are meaningless, only the high-water mark is reported.
uint64_t PeakRssBytes();

/// Scoped monotonic timer: adds the elapsed wall seconds to `*sink` on
/// destruction. Accumulating (+=) so repeated phases of the same kind
/// (e.g. one warm-up per Run call) sum naturally.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink)
      : sink_(sink), start_(MonotonicSeconds()) {}
  ~PhaseTimer() {
    if (sink_ != nullptr) *sink_ += MonotonicSeconds() - start_;
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  double start_;
};

/// The host-side profile of one measured run: per-phase wall-clock,
/// simulator throughput (simulated cache references and retired
/// instructions per host second) and peak RSS. Filled by
/// ExperimentRunner, serialized as the schema v5 `host` section.
struct HostPerf {
  std::string parallel_mode;  // serial|interleaved (effective)

  double populate_seconds = 0.0;  // Create(): populate + cache build
  double warmup_seconds = 0.0;    // all warm-up phases so far
  double measure_seconds = 0.0;   // most recent measurement window

  /// Simulated work of the most recent measurement window, summed over
  /// every core: references = code-line fetches + data accesses (the
  /// unit the raw-speed ROADMAP item ratchets), instructions = retired
  /// instruction count.
  uint64_t simulated_refs = 0;
  uint64_t simulated_instructions = 0;
  double refs_per_second = 0.0;
  double instructions_per_second = 0.0;
  /// Committed transactions of the window per host second.
  double txns_per_second = 0.0;

  uint64_t peak_rss_bytes = 0;
};

/// Serializes `perf` as the `host` JSON object into `w`.
void HostPerfToJson(JsonWriter& w, const HostPerf& perf);

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_HOST_METRICS_H_
