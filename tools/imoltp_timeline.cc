// imoltp_timeline — inspects, validates, and renders the Perfetto
// (Chrome trace-event) timelines written by `imoltp_run
// --timeline-out=FILE` (docs/OBSERVABILITY.md) and the whole-cluster
// ones written by `imoltp_cluster run --timeline-out=FILE`
// (docs/distributed.md, "Distributed tracing"). Cluster timelines
// (metadata kind="cluster") carry one lane per NODE instead of per
// core: info/render label them accordingly, render shows each node's
// critical-path sparkline (the critical_kcycles counter track), and
// both report the cross-node message census (the "s"/"f" flow arrows
// that link a multi-home transaction's home dispatch to its remote
// deliveries).
//
//   imoltp_timeline validate run.timeline.json
//   imoltp_timeline info run.timeline.json
//   imoltp_timeline render run.timeline.json
//
// Subcommands:
//   validate FILE   structural check of the trace-event contract
//                   (traceEvents array, ph/name on every event, numeric
//                   ts/dur where required); prints the event census and
//                   exits non-zero on any violation — CI runs this on
//                   every freshly-emitted timeline
//   info FILE       one-line metadata summary plus per-core event
//                   counts and the covered time range
//   render FILE     terminal rendering: per core, an IPC sparkline over
//                   the sampled buckets, per-module cycle sparklines
//                   (mod:* counter tracks, when the run sampled
//                   per-module), the span census with total duration
//                   per kind, and the retry-flow census (attempt
//                   slices linked by flow id)
//
// Exit codes: 0 = ok, 1 = validation failure, 2 = usage/parse error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/timeline.h"

using imoltp::Status;
using imoltp::obs::JsonValue;
using imoltp::obs::ParseJson;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s validate|info|render FILE\n"
               "FILE is a timeline written by imoltp_run or "
               "imoltp_cluster run, --timeline-out=FILE\n",
               argv0);
  return 2;
}

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->string : fallback;
}

/// Per-core census of one parsed timeline.
struct CoreSummary {
  uint64_t spans = 0;
  uint64_t counters = 0;
  uint64_t attempts = 0;                    // retry-attempt slices
  double t_min = 0.0;
  double t_max = 0.0;
  bool any = false;
  std::map<std::string, double> span_dur;   // kind -> total µs
  std::vector<double> ipc;                  // sampled ipc track, in order
  std::map<std::string, std::vector<double>> modules;  // mod:* tracks
  std::vector<double> critical;  // critical_kcycles track (cluster)

  void Cover(double t) {
    if (!any) {
      t_min = t_max = t;
      any = true;
      return;
    }
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  }
};

/// Whole-timeline retry-flow census.
struct FlowSummary {
  uint64_t flows = 0;          // distinct flow ids
  uint64_t attempts = 0;       // attempt slices across all cores
  uint64_t committed = 0;      // attempts that committed
  int max_chain = 0;           // longest attempt chain
  uint64_t net_arrows = 0;     // cluster cross-node message arrows
};

/// Whether a parsed timeline is a whole-cluster export (pid lanes are
/// nodes, not cores).
bool IsClusterTimeline(const JsonValue& root) {
  const JsonValue* meta = root.Find("metadata");
  if (meta == nullptr || !meta->is_object()) return false;
  return StringOr(meta->Find("kind"), "") == "cluster";
}

std::map<int, CoreSummary> Summarize(const JsonValue& root,
                                     FlowSummary* flows = nullptr) {
  std::map<int, CoreSummary> cores;
  std::map<double, int> chain;  // flow id -> attempt slices
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return cores;
  for (const JsonValue& e : events->array) {
    if (!e.is_object()) continue;
    const std::string ph = StringOr(e.Find("ph"), "");
    if (ph == "s" && flows != nullptr &&
        StringOr(e.Find("cat"), "") == "net") {
      ++flows->net_arrows;  // one "s" per cross-node message
    }
    if (ph != "X" && ph != "C") continue;
    const int pid = static_cast<int>(NumberOr(e.Find("pid"), 0));
    const double ts = NumberOr(e.Find("ts"), 0.0);
    CoreSummary& core = cores[pid];
    core.Cover(ts);
    if (ph == "X") {
      const double dur = NumberOr(e.Find("dur"), 0.0);
      core.Cover(ts + dur);
      if (StringOr(e.Find("cat"), "") == "retry") {
        ++core.attempts;
        if (flows != nullptr) {
          const JsonValue* args = e.Find("args");
          if (args != nullptr) {
            ++flows->attempts;
            ++chain[NumberOr(args->Find("flow"), 0.0)];
            const JsonValue* committed = args->Find("committed");
            if (committed != nullptr &&
                committed->type == JsonValue::Type::kBool &&
                committed->boolean) {
              ++flows->committed;
            }
          }
        }
      } else {
        ++core.spans;
        core.span_dur[StringOr(e.Find("name"), "?")] += dur;
      }
    } else {
      ++core.counters;
      const std::string name = StringOr(e.Find("name"), "");
      const JsonValue* args = e.Find("args");
      if (name == "ipc") {
        core.ipc.push_back(
            args != nullptr ? NumberOr(args->Find("ipc"), 0.0) : 0.0);
      } else if (name == "critical_kcycles") {
        core.critical.push_back(
            args != nullptr ? NumberOr(args->Find("kcycles"), 0.0)
                            : 0.0);
      } else if (name.rfind("mod:", 0) == 0) {
        core.modules[name.substr(4)].push_back(
            args != nullptr ? NumberOr(args->Find("cycles"), 0.0) : 0.0);
      }
    }
  }
  if (flows != nullptr) {
    flows->flows = chain.size();
    for (const auto& [id, n] : chain) {
      flows->max_chain = std::max(flows->max_chain, n);
    }
  }
  return cores;
}

void PrintMeta(const JsonValue& root) {
  const JsonValue* meta = root.Find("metadata");
  if (meta == nullptr || !meta->is_object()) return;
  if (IsClusterTimeline(root)) {
    std::printf(
        "kind=cluster nodes=%.0f clock_ghz=%g trace_sample=%.0f "
        "traced=%.0f orphaned=%.0f dropped_ring=%.0f\n",
        NumberOr(meta->Find("nodes"), 0.0),
        NumberOr(meta->Find("clock_ghz"), 0.0),
        NumberOr(meta->Find("trace_sample"), 0.0),
        NumberOr(meta->Find("traced"), 0.0),
        NumberOr(meta->Find("orphaned"), 0.0),
        NumberOr(meta->Find("dropped_ring"), 0.0));
    return;
  }
  std::printf("engine=%s workload=%s clock_ghz=%g sample_every=%.0f\n",
              StringOr(meta->Find("engine"), "?").c_str(),
              StringOr(meta->Find("workload"), "?").c_str(),
              NumberOr(meta->Find("clock_ghz"), 0.0),
              NumberOr(meta->Find("sample_every"), 0.0));
}

int RunValidate(const char* argv0, const std::string& path,
                const std::string& text) {
  uint64_t spans = 0;
  uint64_t counters = 0;
  uint64_t flows = 0;
  const Status s =
      imoltp::obs::ValidateTimelineJson(text, &spans, &counters, &flows);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf(
      "OK: %s (%llu span events, %llu counter events, %llu flow "
      "events)\n",
      path.c_str(), static_cast<unsigned long long>(spans),
      static_cast<unsigned long long>(counters),
      static_cast<unsigned long long>(flows));
  return 0;
}

int RunInfo(const JsonValue& root) {
  PrintMeta(root);
  const bool cluster = IsClusterTimeline(root);
  const char* lane = cluster ? "node" : "core";
  FlowSummary flows;
  const std::map<int, CoreSummary> cores = Summarize(root, &flows);
  for (const auto& [pid, core] : cores) {
    std::printf(
        "%s %d: %llu spans, %llu counter events, %llu retry "
        "attempts, %.1f..%.1f us\n",
        lane, pid, static_cast<unsigned long long>(core.spans),
        static_cast<unsigned long long>(core.counters),
        static_cast<unsigned long long>(core.attempts), core.t_min,
        core.t_max);
  }
  if (flows.net_arrows > 0) {
    std::printf("cross-node messages: %llu flow arrows\n",
                static_cast<unsigned long long>(flows.net_arrows));
  }
  if (flows.flows > 0) {
    std::printf("retry flows: %llu (%llu attempt slices, longest "
                "chain %d)\n",
                static_cast<unsigned long long>(flows.flows),
                static_cast<unsigned long long>(flows.attempts),
                flows.max_chain);
  }
  if (cores.empty()) std::printf("no span or counter events\n");
  return 0;
}

/// Eight-level unicode sparkline, min..max scaled, capped at 64 cells
/// by averaging adjacent buckets. Fills lo/hi with the scale.
std::string Sparkline(const std::vector<double>& series, double* lo,
                      double* hi) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  *lo = series[0];
  *hi = series[0];
  for (double v : series) {
    *lo = std::min(*lo, v);
    *hi = std::max(*hi, v);
  }
  std::string line;
  const size_t cells = std::min<size_t>(series.size(), 64);
  for (size_t i = 0; i < cells; ++i) {
    const size_t a = i * series.size() / cells;
    const size_t b = std::max(a + 1, (i + 1) * series.size() / cells);
    double sum = 0.0;
    for (size_t j = a; j < b; ++j) sum += series[j];
    const double v = sum / static_cast<double>(b - a);
    const int level =
        *hi > *lo ? static_cast<int>((v - *lo) / (*hi - *lo) * 7.0) : 0;
    line += kBlocks[std::clamp(level, 0, 7)];
  }
  return line;
}

int RunRender(const JsonValue& root) {
  PrintMeta(root);
  const bool cluster = IsClusterTimeline(root);
  FlowSummary flows;
  const std::map<int, CoreSummary> cores = Summarize(root, &flows);
  for (const auto& [pid, core] : cores) {
    std::printf("%s %d (%.1f..%.1f us)\n", cluster ? "node" : "core",
                pid, core.t_min, core.t_max);
    double lo, hi;
    if (!core.ipc.empty()) {
      const std::string line = Sparkline(core.ipc, &lo, &hi);
      std::printf("  ipc [%0.3f..%0.3f] %s\n", lo, hi, line.c_str());
    }
    // Cluster lanes: the node's per-trace critical-path pulse, in
    // close order — tail spikes read as peaks.
    if (!core.critical.empty()) {
      const std::string line = Sparkline(core.critical, &lo, &hi);
      std::printf("  critical path [%9.3g..%9.3g kcyc] %s\n", lo, hi,
                  line.c_str());
    }
    for (const auto& [name, cycles] : core.modules) {
      if (cycles.empty()) continue;
      const std::string line = Sparkline(cycles, &lo, &hi);
      std::printf("  mod %-16s [%9.3g..%9.3g cyc] %s\n", name.c_str(),
                  lo, hi, line.c_str());
    }
    for (const auto& [kind, dur] : core.span_dur) {
      std::printf("  span %-16s %10.1f us\n", kind.c_str(), dur);
    }
    if (core.attempts > 0) {
      std::printf("  retry attempts %llu\n",
                  static_cast<unsigned long long>(core.attempts));
    }
  }
  if (flows.net_arrows > 0) {
    std::printf("cross-node messages: %llu flow arrows\n",
                static_cast<unsigned long long>(flows.net_arrows));
  }
  if (flows.flows > 0) {
    std::printf(
        "retries: %llu flows, %llu attempt slices, %llu committed, "
        "longest chain %d\n",
        static_cast<unsigned long long>(flows.flows),
        static_cast<unsigned long long>(flows.attempts),
        static_cast<unsigned long long>(flows.committed),
        flows.max_chain);
  }
  if (cores.empty()) std::printf("no span or counter events\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage(argv[0]);
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd != "validate" && cmd != "info" && cmd != "render") {
    return Usage(argv[0]);
  }

  auto read = imoltp::obs::ReadTextFile(path);
  if (!read.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0],
                 read.status().message().c_str());
    return 2;
  }
  const std::string& text = *read;
  if (cmd == "validate") return RunValidate(argv[0], path, text);

  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], path.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  if (cmd == "info") return RunInfo(parsed.value());
  return RunRender(parsed.value());
}
