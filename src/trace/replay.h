#ifndef IMOLTP_TRACE_REPLAY_H_
#define IMOLTP_TRACE_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mcsim/counters.h"
#include "mcsim/profiler.h"
#include "trace/meta.h"

namespace imoltp::trace {

/// Outcome of re-simulating one trace through one machine configuration.
struct ReplayResult {
  TraceMeta meta;  // header of the replayed trace

  /// Report of the recorded measurement window (profiler attached at
  /// the trace's window markers). Valid when has_window is true; if a
  /// trace carries several windows, this is the last one.
  mcsim::WindowReport window;
  bool has_window = false;
  int windows = 0;

  /// Final raw counters and prefetch counts, one entry per worker.
  /// Under the recorded configuration these are bit-identical to the
  /// live run's (the ctest-enforced determinism guarantee).
  std::vector<mcsim::CoreCounters> counters;
  std::vector<uint64_t> prefetches;

  uint64_t events = 0;
};

/// Re-simulates the recorded reference stream through `config`. The
/// worker/core count always comes from the trace header; every other
/// field of `config` is honored. Each call builds a private MachineSim,
/// so concurrent replays of one trace need no synchronization.
Status ReplayTrace(const std::string& path,
                   const mcsim::MachineConfig& config,
                   ReplayResult* result);

/// Replays under the configuration stored in the trace header.
Status ReplayTraceRecorded(const std::string& path, ReplayResult* result);

/// Applies a comma-separated override spec to `config`. Keys:
///   l1i,l1d,l2,llc = cache size ("32KB", "20MB", bare bytes)
///   llc_assoc, l2_assoc = ways (at most 256);  line = bytes (all caches)
///   pf = on|off;  pfdeg = N;  tlb = on|off
///   base_cpi, cpi_floor, clock = doubles
/// An empty spec (or "recorded") changes nothing.
Status ApplyConfigSpec(const std::string& spec,
                       mcsim::MachineConfig* config);

/// One cell of a config sweep over a single trace.
struct SweepCell {
  std::string label;
  mcsim::MachineConfig config;
  Status status;  // per-cell outcome
  ReplayResult result;
};

/// Fans one trace across all cells on up to `threads` OS threads. Each
/// replay owns a private reader and MachineSim, preserving the
/// simulator's no-synchronization invariant per thread. Per-cell
/// failures land in SweepCell::status; the sweep itself always
/// completes.
void RunSweep(const std::string& path, std::vector<SweepCell>* cells,
              int threads);

/// Exact equality of every counter, including the IEEE-754 bit pattern
/// of cycle accumulators and the per-module array — the determinism
/// check between a live run and its replay.
bool CountersIdentical(const mcsim::CoreCounters& a,
                       const mcsim::CoreCounters& b);

}  // namespace imoltp::trace

#endif  // IMOLTP_TRACE_REPLAY_H_
