#ifndef IMOLTP_OBS_TIMELINE_H_
#define IMOLTP_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mcsim/profiler.h"
#include "obs/json.h"
#include "obs/span.h"

namespace imoltp::obs {

/// One recorded span interval on one core's timeline, in cumulative
/// simulated model cycles (machine time, not wall-clock).
struct TimelineEvent {
  SpanKind kind = SpanKind::kIndexProbe;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// One execution attempt of a retried transaction, in cumulative
/// simulated model cycles. Attempts of the same logical transaction
/// share a flow_id, which the Perfetto export turns into flow arrows
/// ("s"/"t"/"f" events) linking the attempt slices — the retry story of
/// one transaction reads as a connected chain across the timeline.
struct AttemptEvent {
  uint64_t flow_id = 0;
  int attempt = 0;  // 1-based execution attempt
  bool committed = false;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Per-core interval log behind the Perfetto timeline export.
///
/// Like SpanCollector, recording is striped into one lane per simulated
/// core (a ScopedSpan only ever appends to the lane of the core it
/// measures). Each lane is bounded: once `capacity_per_core` events are
/// held, further events are dropped and counted — a runaway window
/// degrades to a truncated timeline, never to unbounded memory.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(int num_cores = 1,
                            size_t capacity_per_core = 1 << 16)
      : capacity_(capacity_per_core > 0 ? capacity_per_core : 1),
        lanes_(num_cores > 0 ? static_cast<size_t>(num_cores) : 1) {}

  void Reset() {
    for (Lane& lane : lanes_) {
      lane.events.clear();
      lane.attempts.clear();
      lane.dropped = 0;
    }
  }

  void Record(int core, SpanKind kind, double t0, double t1) {
    Lane& lane = lane_for(core);
    if (lane.events.size() >= capacity_) {
      ++lane.dropped;
      return;
    }
    lane.events.push_back(TimelineEvent{kind, t0, t1});
  }

  /// Appends one retry-attempt slice to the core's lane. Same bound as
  /// Record.
  void RecordAttempt(int core, const AttemptEvent& event) {
    Lane& lane = lane_for(core);
    if (lane.attempts.size() >= capacity_) {
      ++lane.dropped;
      return;
    }
    lane.attempts.push_back(event);
  }

  int num_cores() const { return static_cast<int>(lanes_.size()); }
  const std::vector<TimelineEvent>& events(int core) const {
    return lanes_[static_cast<size_t>(core)].events;
  }
  const std::vector<AttemptEvent>& attempts(int core) const {
    return lanes_[static_cast<size_t>(core)].attempts;
  }
  uint64_t dropped(int core) const {
    return lanes_[static_cast<size_t>(core)].dropped;
  }

 private:
  struct Lane {
    std::vector<TimelineEvent> events;
    std::vector<AttemptEvent> attempts;
    uint64_t dropped = 0;
  };

  Lane& lane_for(int core) {
    const size_t id = static_cast<size_t>(core);
    return lanes_[id < lanes_.size() ? id : 0];
  }

  size_t capacity_;
  std::vector<Lane> lanes_;
};

// ---------------------------------------------------------------------
// Shared trace-event emitters. Both timeline exporters — the
// single-machine one below and the whole-cluster one in
// src/dist/cluster_timeline.cc — speak the same Chrome trace-event
// dialect through these helpers, so the ValidateTimelineJson contract
// is enforced at one place.

/// Model cycles → trace-event microseconds at the configured clock.
inline double TraceEventMicros(double cycles, double clock_ghz) {
  const double ghz = clock_ghz > 0 ? clock_ghz : 1.0;
  return cycles / (ghz * 1000.0);
}

/// One "M" metadata event (process_name / thread_name labels).
void WriteTraceMetadataEvent(JsonWriter& w, const char* name, int pid,
                             int tid, const char* value);

/// One "C" counter event with numeric args.
void WriteTraceCounterEvent(
    JsonWriter& w, const char* name, int pid, int tid, double ts_us,
    const std::vector<std::pair<const char*, double>>& args);

/// One complete "X" span event.
void WriteTraceSpanEvent(JsonWriter& w, const char* name, const char* cat,
                         int pid, int tid, double ts_us, double dur_us);

/// Identity and clock of one exported timeline.
struct TimelineOptions {
  std::string engine;
  std::string workload;
  /// Simulated core clock used to map model cycles to trace-event
  /// microseconds (the paper's machine runs at 2 GHz).
  double clock_ghz = 2.0;
};

/// Renders one measurement window as Chrome trace-event JSON, loadable
/// by Perfetto (ui.perfetto.dev) and chrome://tracing. One "process"
/// per simulated core carries that core's lifecycle spans (complete
/// "X" events from `recorder`, may be null), retry-attempt slices on a
/// second thread row with flow arrows ("s"/"t"/"f" events sharing a
/// flow id) linking re-executions of the same transaction, and its
/// sampled counter tracks ("C" events — IPC, total stalls per
/// kilo-instruction, abort rate, plus one `mod:<name>` track per code
/// module when the sampler ran per-module). Span timestamps are
/// normalized to the earliest recorded event so the window starts near
/// t=0.
std::string TimelineToJson(const TimelineOptions& options,
                           const mcsim::WindowReport& report,
                           const TimelineRecorder* recorder);

/// Structural validation of a timeline document: parses the JSON and
/// checks the trace-event contract (a `traceEvents` array whose entries
/// carry `ph`/`name`; numeric `ts` for "X"/"C" events; an `id` for
/// flow events). Used by `imoltp_timeline validate` and CI. Returns
/// counts through the optional out-params.
Status ValidateTimelineJson(std::string_view json,
                            uint64_t* span_events = nullptr,
                            uint64_t* counter_events = nullptr,
                            uint64_t* flow_events = nullptr);

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_TIMELINE_H_
