#include "obs/host_metrics.h"

#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace imoltp::obs {

double MonotonicSeconds() {
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void HostPerfToJson(JsonWriter& w, const HostPerf& perf) {
  w.BeginObject();
  w.KeyValue("parallel_mode", perf.parallel_mode);
  w.Key("phase_seconds");
  w.BeginObject();
  w.KeyValue("populate", perf.populate_seconds);
  w.KeyValue("warmup", perf.warmup_seconds);
  w.KeyValue("measure", perf.measure_seconds);
  w.KeyValue("total", perf.populate_seconds + perf.warmup_seconds +
                          perf.measure_seconds);
  w.EndObject();
  w.Key("measure");
  w.BeginObject();
  w.KeyValue("simulated_refs", perf.simulated_refs);
  w.KeyValue("refs_per_sec", perf.refs_per_second);
  w.KeyValue("simulated_instructions", perf.simulated_instructions);
  w.KeyValue("instructions_per_sec", perf.instructions_per_second);
  w.KeyValue("committed_txns_per_sec", perf.txns_per_second);
  w.EndObject();
  w.KeyValue("peak_rss_bytes", perf.peak_rss_bytes);
  w.EndObject();
}

}  // namespace imoltp::obs
