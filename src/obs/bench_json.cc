#include "obs/bench_json.h"

#include <cmath>
#include <cstdio>

#include "mcsim/counters.h"

namespace imoltp::obs {

namespace {

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

uint64_t CountOr(const JsonValue* v, uint64_t fallback) {
  return v != nullptr && v->is_number()
             ? static_cast<uint64_t>(v->number)
             : fallback;
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->string : fallback;
}

}  // namespace

std::string BenchMatrixToJson(const BenchMatrix& matrix) {
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("bench_schema_version", kBenchSchemaVersion);
  w.KeyValue("label", matrix.label);
  w.KeyValue("commit", matrix.commit);
  w.KeyValue("config", matrix.config);
  w.KeyValue("created_unix", matrix.created_unix);
  w.Key("cells");
  w.BeginArray();
  for (const BenchCell& c : matrix.cells) {
    w.BeginObject();
    w.KeyValue("id", c.id);
    w.KeyValue("engine", c.engine);
    w.KeyValue("workload", c.workload);
    w.KeyValue("mode", c.mode);
    w.KeyValue("workers", c.workers);
    w.KeyValue("warmup_txns", c.warmup_txns);
    w.KeyValue("measure_txns", c.measure_txns);
    w.KeyValue("seed", c.seed);
    w.KeyValue("ipc", c.ipc);
    w.KeyValue("instructions_per_txn", c.instructions_per_txn);
    w.KeyValue("cycles_per_txn", c.cycles_per_txn);
    w.Key("stalls_per_kinstr");
    w.BeginObject();
    for (int i = 0; i < 6; ++i) {
      w.KeyValue(mcsim::StallBreakdown::kNames[i], c.stalls_per_kinstr[i]);
    }
    w.EndObject();
    w.KeyValue("committed", c.committed);
    w.KeyValue("aborts", c.aborts);
    w.KeyValue("p99_net_order_share", c.p99_net_order_share);
    w.KeyValue("wall_seconds", c.wall_seconds);
    w.KeyValue("total_wall_seconds", c.total_wall_seconds);
    w.KeyValue("simulated_refs", c.simulated_refs);
    w.KeyValue("refs_per_sec", c.refs_per_sec);
    w.KeyValue("instructions_per_sec", c.instructions_per_sec);
    w.KeyValue("peak_rss_bytes", c.peak_rss_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

StatusOr<BenchMatrix> ParseBenchMatrix(const std::string& json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("bench matrix: root is not an object");
  }
  const JsonValue* version = root.Find("bench_schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument(
        "bench matrix: missing bench_schema_version (not a "
        "BENCH_*.json document?)");
  }
  if (static_cast<int>(version->number) != kBenchSchemaVersion) {
    return Status::InvalidArgument(
        "bench matrix: bench_schema_version " +
        std::to_string(static_cast<int>(version->number)) +
        " is not the supported " + std::to_string(kBenchSchemaVersion));
  }
  const JsonValue* cells = root.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("bench matrix: missing cells array");
  }

  BenchMatrix matrix;
  matrix.label = StringOr(root.Find("label"), "");
  matrix.commit = StringOr(root.Find("commit"), "");
  matrix.config = StringOr(root.Find("config"), "");
  matrix.created_unix = CountOr(root.Find("created_unix"), 0);
  for (const JsonValue& entry : cells->array) {
    if (!entry.is_object()) {
      return Status::InvalidArgument(
          "bench matrix: cells entry is not an object");
    }
    BenchCell c;
    c.id = StringOr(entry.Find("id"), "");
    if (c.id.empty()) {
      return Status::InvalidArgument("bench matrix: cell without an id");
    }
    c.engine = StringOr(entry.Find("engine"), "");
    c.workload = StringOr(entry.Find("workload"), "");
    c.mode = StringOr(entry.Find("mode"), "");
    c.workers = static_cast<int>(NumberOr(entry.Find("workers"), 0));
    c.warmup_txns = CountOr(entry.Find("warmup_txns"), 0);
    c.measure_txns = CountOr(entry.Find("measure_txns"), 0);
    c.seed = CountOr(entry.Find("seed"), 0);
    c.ipc = NumberOr(entry.Find("ipc"), 0.0);
    c.instructions_per_txn =
        NumberOr(entry.Find("instructions_per_txn"), 0.0);
    c.cycles_per_txn = NumberOr(entry.Find("cycles_per_txn"), 0.0);
    if (const JsonValue* stalls = entry.Find("stalls_per_kinstr")) {
      for (int i = 0; i < 6; ++i) {
        c.stalls_per_kinstr[i] =
            NumberOr(stalls->Find(mcsim::StallBreakdown::kNames[i]), 0.0);
      }
    }
    c.committed = CountOr(entry.Find("committed"), 0);
    c.aborts = CountOr(entry.Find("aborts"), 0);
    c.p99_net_order_share =
        NumberOr(entry.Find("p99_net_order_share"), 0.0);
    c.wall_seconds = NumberOr(entry.Find("wall_seconds"), 0.0);
    c.total_wall_seconds =
        NumberOr(entry.Find("total_wall_seconds"), 0.0);
    c.simulated_refs = CountOr(entry.Find("simulated_refs"), 0);
    c.refs_per_sec = NumberOr(entry.Find("refs_per_sec"), 0.0);
    c.instructions_per_sec =
        NumberOr(entry.Find("instructions_per_sec"), 0.0);
    c.peak_rss_bytes = CountOr(entry.Find("peak_rss_bytes"), 0);
    matrix.cells.push_back(std::move(c));
  }
  return matrix;
}

const BenchCell* BenchMatrix::FindCell(const std::string& id) const {
  for (const BenchCell& c : cells) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

namespace {

void CheckSimulatedDrift(const std::string& id, const char* metric,
                         double base, double cand, double rtol,
                         std::vector<BenchCompareFailure>* failures) {
  if (base <= 0 || cand <= 0) return;  // not measured on one side
  const double scale = std::fmax(std::fabs(base), std::fabs(cand));
  const double rel = std::fabs(base - cand) / scale;
  if (rel > rtol) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.6g vs %.6g (rel %.4f > rtol %.4f)",
                  base, cand, rel, rtol);
    failures->push_back({id, metric, buf});
  }
}

}  // namespace

std::vector<BenchCompareFailure> CompareBenchMatrices(
    const BenchMatrix& baseline, const BenchMatrix& candidate,
    const BenchCompareOptions& options) {
  std::vector<BenchCompareFailure> failures;
  for (const BenchCell& base : baseline.cells) {
    const BenchCell* cand = candidate.FindCell(base.id);
    if (cand == nullptr) {
      if (!options.allow_missing) {
        failures.push_back(
            {base.id, "cell", "missing from candidate matrix"});
      }
      continue;
    }

    CheckSimulatedDrift(base.id, "ipc", base.ipc, cand->ipc,
                        options.ipc_rtol, &failures);
    CheckSimulatedDrift(base.id, "instructions_per_txn",
                        base.instructions_per_txn,
                        cand->instructions_per_txn, options.ipc_rtol,
                        &failures);

    // Host speed: one-sided. Prefer refs/sec (work-normalized, so a
    // config with different txn counts still compares); fall back to
    // wall-clock for timing-only cells.
    if (base.refs_per_sec > 0 && cand->refs_per_sec > 0) {
      const double floor =
          base.refs_per_sec * (1.0 - options.max_regress);
      if (cand->refs_per_sec < floor) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%.4g refs/sec vs baseline %.4g (below the "
                      "allowed %.4g = -%.0f%%)",
                      cand->refs_per_sec, base.refs_per_sec, floor,
                      options.max_regress * 100.0);
        failures.push_back({base.id, "refs_per_sec", buf});
      }
    } else if (base.wall_seconds > 0 && cand->wall_seconds > 0) {
      const double ceiling =
          base.wall_seconds * (1.0 + options.max_regress);
      if (cand->wall_seconds > ceiling) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%.3fs vs baseline %.3fs (above the allowed "
                      "%.3fs = +%.0f%%)",
                      cand->wall_seconds, base.wall_seconds, ceiling,
                      options.max_regress * 100.0);
        failures.push_back({base.id, "wall_seconds", buf});
      }
    }
  }
  return failures;
}

}  // namespace imoltp::obs
