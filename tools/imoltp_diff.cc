// imoltp_diff — compares two JSON documents and exits non-zero when
// any metric drifts beyond its tolerance. It takes run reports
// (`imoltp_run --json`, `imoltp_trace replay --json`), cluster run and
// sweep documents (`imoltp_cluster --json`), and bench matrices
// (`BENCH_*.json` from imoltp_bench or scripts/run_all_bench.sh). The
// regression harness runs a fixed-seed experiment and diffs it against
// a checked-in golden report (scripts/check_regression.sh); CI diffs a
// reduced bench sweep against the committed BENCH_baseline.json.
//
//   imoltp_diff baseline.json candidate.json
//   imoltp_diff --rtol=0.05 --metric-rtol=spans=0.2 a.json b.json
//   imoltp_diff --json a.json b.json   # machine-readable verdict
//   imoltp_diff --max-regress=0.5 BENCH_baseline.json BENCH_new.json
//
// Flags:
//   --rtol=X                default relative tolerance (default 0.02;
//                           for bench matrices the simulated-metric
//                           tolerance, default 0.05)
//   --metric-rtol=PREFIX=X  override for metrics whose dotted path
//                           starts with PREFIX (repeatable; reports
//                           only)
//   --ignore=PREFIX         skip metrics under PREFIX (repeatable;
//                           reports only)
//   --max-regress=X         allowed host-speed regression of a bench
//                           cell (default 0.15; bench matrices only)
//   --allow-missing         skip baseline cells absent from the
//                           candidate (bench matrices only)
//   --json                  emit the verdict as one JSON object on
//                           stdout ({verdict, baseline, candidate,
//                           failures:[{path, detail}]}) instead of the
//                           human-readable lines
//
// Exit codes: 0 = within tolerance, 1 = drift (offending metrics are
// printed), 2 = usage or parse error, including documents of different
// kinds or schema versions and flags that do not apply to the kind.
//
// A document with a `bench_schema_version` key is a bench matrix. Its
// cells are paired by id and judged by obs::CompareBenchMatrices
// (obs/bench_json.h): symmetric drift on the simulated ipc and
// instructions/txn, one-sided regression on host refs/sec (wall-clock
// for timing-only cells). A failure's path is `<cell id>.<metric>`. In
// text mode the throughput and stall tables of both matrices print
// first.
//
// Built-in per-metric rules (longest matching prefix wins; explicit
// --metric-rtol/--ignore flags take precedence over all of them):
//   meta, schema_version          exact — different run configurations
//                                 are incomparable, not "drifted"
//   meta.trace                    ignored — trace provenance names the
//                                 file, not the run configuration
//   window.misses                 rtol 0.05, atol 128 (ASLR perturbs
//                                 cold-miss counts)
//   window.stalls                 rtol 0.10, atol 0.5
//   window.cycle_accounting       rtol 0.05, atol 1000 (derives from
//                                 the jittery miss counts)
//   latency_cycles                rtol 0.10
//   spans                         rtol 0.10, atol 500
//   latency_cycles.bins           ignored — counts hop between adjacent
//                                 log-spaced bins on tiny shifts
//   robustness                    exact — commit/abort/retry/fault
//                                 counters repeat from the seed in
//                                 both modes
//   timeseries.sample_every       exact — different sampling periods
//                                 produce incomparable bucket grids
//   timeseries.convergence        ignored — an advisory warm-up verdict,
//                                 not a metric (its boolean flips on
//                                 noise exactly at the tolerance edge)
//   timeseries                    rtol 0.10, atol 2.0 — bucket-wise;
//                                 per-bucket miss-derived values are
//                                 noisier than whole-window averages
//   window.txn_module_breakdown   rtol 0.05, atol 1000 (per-type module
//                                 cycles inherit the miss-count jitter)
//   host                          ignored — host-side wall-clock /
//                                 throughput / RSS measure the simulator
//                                 process, never deterministic (bench
//                                 matrices gate host speed)
//   cluster                       exact — cluster outcome counts, net
//                                 accounting, fingerprint, invariants
//                                 are bit-identical per seed
//   cluster.windows,
//   cluster.*throughput/cycles    tolerant — per-node window reports
//                                 and throughput carry cycle-model
//                                 (ASLR-jittered) values
//   cluster.tracing.*.cycles,
//   cluster.tracing.p99_*         tolerant — trace stage/critical-path
//                                 percentiles and the p99 composition
//                                 shares are cycle-model values; trace
//                                 counts stay exact under `cluster`
//   sweep / sweep.perf            exact series, tolerant perf (same
//                                 split for sweep documents)
//   everything else               default rtol (0.02)
//
// When either report has meta.trace.replayed == true, latency_cycles,
// spans, robustness, timeseries, and window.txn_module_breakdown are
// ignored entirely: a replay re-simulates the recorded reference stream
// without the engine, so it has no per-transaction latency histogram,
// lifecycle spans, abort/retry accounting, sampled series, or per-type
// attribution, and their absence is not drift.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mcsim/counters.h"
#include "obs/bench_json.h"
#include "obs/json.h"

using imoltp::obs::BenchCell;
using imoltp::obs::BenchCompareOptions;
using imoltp::obs::BenchMatrix;
using imoltp::obs::CompareBenchMatrices;
using imoltp::obs::JsonValue;
using imoltp::obs::ParseBenchMatrix;
using imoltp::obs::ParseJson;
using imoltp::obs::ReadTextFile;

namespace {

struct ToleranceRule {
  std::string prefix;  // dotted-path prefix; "" matches everything
  double rtol;         // negative = ignore subtree
  double atol = 0.0;   // absolute floor for small-magnitude metrics
};

// Default --rtol for run, cluster and sweep documents. Bench matrices
// default to BenchCompareOptions::ipc_rtol instead.
constexpr double kReportDefaultRtol = 0.02;

struct Options {
  double default_rtol = -1.0;  // --rtol; negative = the kind's default
  std::vector<ToleranceRule> user_rules;  // from flags, highest priority
  std::string baseline_path;
  std::string candidate_path;
  bool json_output = false;
  BenchCompareOptions bench;  // bench matrices: --max-regress etc.
};

/// One metric beyond tolerance: the dotted path and what differed.
struct Failure {
  std::string path;
  std::string detail;
};

// The cache simulator hashes real heap addresses, so ASLR perturbs
// cold-miss counts slightly between otherwise identical runs; the
// absolute floors keep near-zero counters (a handful of L2I misses)
// from tripping a purely relative check.
const ToleranceRule kBuiltinRules[] = {
    {"schema_version", 0.0, 0.0},
    {"meta", 0.0, 0.0},
    // Trace provenance (schema v2) identifies the file, not the run:
    // a recorded baseline and its replay must still compare clean.
    {"meta.trace", -1.0, 0.0},
    {"window.misses", 0.05, 128.0},
    {"window.stalls", 0.10, 0.5},
    {"window.cycle_accounting", 0.05, 1000.0},
    {"latency_cycles.bins", -1.0, 0.0},
    {"latency_cycles", 0.10, 0.0},
    {"spans", 0.10, 500.0},
    // Schema v3: deterministic-mode runs must match these exactly; any
    // change in commit counts, abort causes, retry traffic, or the
    // fault schedule is a real behavioral regression, not jitter.
    {"robustness", 0.0, 0.0},
    // Schema v4: the sampled time-series compares bucket-wise. Bucket
    // boundaries and retired-work counts are deterministic, but the
    // per-bucket miss-derived values (model_cycles, ipc, stalls) are
    // noisier than whole-window averages — fewer events average the
    // placement jitter out. The convergence verdict is advisory.
    {"timeseries.sample_every", 0.0, 0.0},
    {"timeseries.convergence", -1.0, 0.0},
    {"timeseries", 0.10, 2.0},
    {"window.txn_module_breakdown", 0.05, 1000.0},
    // Schema v5: host-side metrics (wall-clock, refs/sec, RSS) measure
    // the simulator process, not the simulated machine — never
    // deterministic, never comparable. Bench matrices carry the host
    // throughput trajectory and gate it.
    {"host", -1.0, 0.0},
    // Schema v7: checkpoint / recovery accounting. Capture cadence,
    // truncation counts, and replay/undo totals are deterministic —
    // any drift is a real behavioral change.
    {"recovery", 0.0, 0.0},
    // Schema v6: cluster documents. Outcome counts, fingerprints,
    // network accounting, and invariants are deterministic (same-seed
    // cluster runs are bit-identical) — exact. The per-node window
    // reports and throughput derive from the cycle model's
    // address-hashed miss counts, so they inherit the usual ASLR
    // jitter; they live under distinct key prefixes precisely so these
    // rules can hold everything else exact.
    {"cluster", 0.0, 0.0},
    {"cluster.windows", 0.10, 1000.0},
    {"cluster.max_window_cycles", 0.10, 0.0},
    {"cluster.throughput_per_mcycle", 0.10, 0.0},
    // Schema v8: distributed tracing. Trace COUNTS (traced, committed,
    // orphaned, stage counts, ring drops) stay under the exact
    // `cluster` rule above — they are part of the same-seed determinism
    // contract. Only the cycle-valued subtrees are tolerant: stage and
    // critical-path percentiles inherit the cycle model's ASLR jitter,
    // and the p99 composition shares are ratios of them (atol 0.05 on
    // a 0..1 share ≈ the windows rule's 1000-cycle floor).
    {"cluster.tracing.stages.cycles", 0.10, 2000.0},
    {"cluster.tracing.critical_path.cycles", 0.10, 2000.0},
    {"cluster.tracing.p99_composition", 0.10, 0.05},
    {"cluster.tracing.p99_net_order_share", 0.10, 0.05},
    {"sweep", 0.0, 0.0},
    {"sweep.perf", 0.10, 100.0},
};

bool PrefixMatches(const std::string& path, const std::string& prefix) {
  return prefix.empty() || path.compare(0, prefix.size(), prefix) == 0;
}

/// Longest matching user rule wins; then longest built-in; then the
/// default. Returns {rtol, atol}; negative rtol = ignore.
ToleranceRule RuleFor(const std::string& path, const Options& opts) {
  const ToleranceRule* best = nullptr;
  for (const ToleranceRule& r : opts.user_rules) {
    if (PrefixMatches(path, r.prefix) &&
        (best == nullptr || r.prefix.size() > best->prefix.size())) {
      best = &r;
    }
  }
  if (best != nullptr) return *best;
  for (const ToleranceRule& r : kBuiltinRules) {
    if (PrefixMatches(path, r.prefix) &&
        (best == nullptr || r.prefix.size() > best->prefix.size())) {
      best = &r;
    }
  }
  return best != nullptr ? *best
                         : ToleranceRule{"", opts.default_rtol, 0.0};
}

const char* TypeName(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

void Fail(std::vector<Failure>* failures, const std::string& path,
          const std::string& what) {
  failures->push_back(
      Failure{path.empty() ? std::string("<root>") : path, what});
}

std::string Join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

void Compare(const JsonValue& a, const JsonValue& b,
             const std::string& path, const Options& opts,
             std::vector<Failure>* failures) {
  const ToleranceRule rule = RuleFor(path, opts);
  const double rtol = rule.rtol;
  if (rtol < 0) return;  // ignored subtree

  if (a.type != b.type) {
    Fail(failures, path,
         std::string("type mismatch (") + TypeName(a.type) + " vs " +
             TypeName(b.type) + ")");
    return;
  }
  switch (a.type) {
    case JsonValue::Type::kNull:
      return;
    case JsonValue::Type::kBool:
      if (a.boolean != b.boolean) {
        Fail(failures, path,
             std::string("bool mismatch (") +
                 (a.boolean ? "true" : "false") + " vs " +
                 (b.boolean ? "true" : "false") + ")");
      }
      return;
    case JsonValue::Type::kString:
      if (a.string != b.string) {
        Fail(failures, path,
             "\"" + a.string + "\" vs \"" + b.string + "\"");
      }
      return;
    case JsonValue::Type::kNumber: {
      const double diff = std::fabs(a.number - b.number);
      const double scale =
          std::fmax(std::fabs(a.number), std::fabs(b.number));
      const bool ok =
          rtol == 0.0 && rule.atol == 0.0
              ? a.number == b.number
              : diff <= rtol * scale + rule.atol + 1e-12;
      if (!ok) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%.6g vs %.6g (rel %.4f > rtol %.4f, atol %g)",
                      a.number, b.number,
                      scale > 0 ? diff / scale : 0.0, rtol, rule.atol);
        Fail(failures, path, buf);
      }
      return;
    }
    case JsonValue::Type::kArray: {
      if (a.array.size() != b.array.size()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "array size %zu vs %zu",
                      a.array.size(), b.array.size());
        Fail(failures, path, buf);
        return;
      }
      for (size_t i = 0; i < a.array.size(); ++i) {
        char idx[24];
        std::snprintf(idx, sizeof(idx), "[%zu]", i);
        Compare(a.array[i], b.array[i], path + idx, opts, failures);
      }
      return;
    }
    case JsonValue::Type::kObject: {
      for (const auto& [key, av] : a.object) {
        const JsonValue* bv = b.Find(key);
        if (bv == nullptr) {
          if (RuleFor(Join(path, key), opts).rtol >= 0) {
            Fail(failures, Join(path, key), "missing in candidate");
          }
          continue;
        }
        Compare(av, *bv, Join(path, key), opts, failures);
      }
      for (const auto& [key, bv] : b.object) {
        (void)bv;
        if (a.Find(key) == nullptr &&
            RuleFor(Join(path, key), opts).rtol >= 0) {
          Fail(failures, Join(path, key), "missing in baseline");
        }
      }
      return;
    }
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rtol=X] [--metric-rtol=PREFIX=X]... "
               "[--ignore=PREFIX]... [--max-regress=X] [--allow-missing] "
               "[--json] baseline.json candidate.json\n",
               argv0);
  return 2;
}

/// Reads and parses one document; on failure prints why and returns
/// false.
bool LoadDocument(const char* argv0, const std::string& path,
                  std::string* text, JsonValue* json) {
  auto read = ReadTextFile(path);
  if (!read.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv0,
                 read.status().message().c_str());
    return false;
  }
  auto parsed = ParseJson(*read);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv0, path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *text = std::move(*read);
  *json = std::move(*parsed);
  return true;
}

/// Throughput and stall tables of a bench baseline and candidate,
/// row per baseline cell.
void PrintBenchTables(const BenchMatrix& base, const BenchMatrix& cand) {
  const BenchMatrix* const sides[] = {&base, &cand};
  std::printf("\n== Throughput (simulated IPC | host refs/sec) ==\n");
  std::printf("%-34s", "cell");
  for (const BenchMatrix* m : sides) {
    const std::string label = m->label.substr(0, 12);
    std::printf(" %8s.ipc %11s.r/s", label.c_str(), label.c_str());
  }
  std::printf("\n");
  for (const BenchCell& b : base.cells) {
    std::printf("%-34s", b.id.c_str());
    for (const BenchMatrix* m : sides) {
      const BenchCell* c = m->FindCell(b.id);
      if (c == nullptr) {
        std::printf(" %12s %15s", "-", "-");
      } else if (c->refs_per_sec > 0) {
        std::printf(" %12.4f %15.4g", c->ipc, c->refs_per_sec);
      } else {
        // Timing-only cell (run_all_bench.sh): wall-clock stands in.
        std::printf(" %12.4f %13.3fs", c->ipc, c->wall_seconds);
      }
    }
    std::printf("\n");
  }

  std::printf("\n== Stall cycles per 1000 instructions ==\n");
  std::printf("%-34s %-12s", "cell", "matrix");
  for (const char* name : imoltp::mcsim::StallBreakdown::kNames) {
    std::printf(" %8s", name);
  }
  std::printf("\n");
  for (const BenchCell& b : base.cells) {
    bool any = false;
    for (double stall : b.stalls_per_kinstr) any = any || stall > 0;
    if (!any) continue;  // timing-only cells carry no stall profile
    for (const BenchMatrix* m : sides) {
      const BenchCell* c = m->FindCell(b.id);
      if (c == nullptr) continue;
      std::printf("%-34s %-12s", m == &base ? b.id.c_str() : "",
                  m->label.substr(0, 12).c_str());
      for (double stall : c->stalls_per_kinstr) {
        std::printf(" %8.2f", stall);
      }
      std::printf("\n");
    }
  }
}

/// Judges two bench matrices with the bench rule table
/// (obs::CompareBenchMatrices). Returns false, after printing why, when
/// either document does not parse as a matrix.
bool DiffBenchMatrices(const char* argv0, const std::string& base_text,
                       const std::string& cand_text, const Options& opts,
                       std::vector<Failure>* failures) {
  BenchMatrix matrices[2];
  const std::string* texts[] = {&base_text, &cand_text};
  const std::string* paths[] = {&opts.baseline_path, &opts.candidate_path};
  for (int i = 0; i < 2; ++i) {
    auto parsed = ParseBenchMatrix(*texts[i]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", argv0, paths[i]->c_str(),
                   parsed.status().ToString().c_str());
      return false;
    }
    matrices[i] = std::move(*parsed);
    if (matrices[i].label.empty()) matrices[i].label = *paths[i];
  }
  if (!opts.json_output) PrintBenchTables(matrices[0], matrices[1]);
  for (const auto& f :
       CompareBenchMatrices(matrices[0], matrices[1], opts.bench)) {
    failures->push_back(Failure{Join(f.cell, f.metric), f.detail});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool bench_flags = false;  // --max-regress / --allow-missing seen
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rtol=", 0) == 0) {
      char* end = nullptr;
      opts.default_rtol = std::strtod(arg.c_str() + 7, &end);
      if (end == nullptr || *end != '\0' || opts.default_rtol < 0) {
        std::fprintf(stderr, "%s: bad --rtol value\n", argv[0]);
        return 2;
      }
    } else if (arg.rfind("--metric-rtol=", 0) == 0) {
      const std::string spec = arg.substr(14);
      const size_t eq = spec.rfind('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "%s: --metric-rtol needs PREFIX=X, got '%s'\n",
                     argv[0], spec.c_str());
        return 2;
      }
      char* end = nullptr;
      const double rtol = std::strtod(spec.c_str() + eq + 1, &end);
      if (end == nullptr || *end != '\0' || rtol < 0) {
        std::fprintf(stderr, "%s: bad --metric-rtol value in '%s'\n",
                     argv[0], spec.c_str());
        return 2;
      }
      opts.user_rules.push_back({spec.substr(0, eq), rtol});
    } else if (arg.rfind("--ignore=", 0) == 0) {
      opts.user_rules.push_back({arg.substr(9), -1.0});
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      char* end = nullptr;
      opts.bench.max_regress = std::strtod(arg.c_str() + 14, &end);
      if (end == nullptr || *end != '\0' || opts.bench.max_regress <= 0) {
        std::fprintf(stderr, "%s: bad --max-regress value\n", argv[0]);
        return 2;
      }
      bench_flags = true;
    } else if (arg == "--allow-missing") {
      opts.bench.allow_missing = true;
      bench_flags = true;
    } else if (arg == "--json") {
      opts.json_output = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      return Usage(argv[0]);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage(argv[0]);
  opts.baseline_path = positional[0];
  opts.candidate_path = positional[1];

  std::string base_text, cand_text;
  JsonValue base, cand;
  if (!LoadDocument(argv[0], opts.baseline_path, &base_text, &base) ||
      !LoadDocument(argv[0], opts.candidate_path, &cand_text, &cand)) {
    return 2;
  }

  // Documents of different kinds or schemas, and flags that do not
  // apply to the kind, are usage errors, not metric drift.
  const bool bench = base.Find("bench_schema_version") != nullptr;
  if (bench != (cand.Find("bench_schema_version") != nullptr)) {
    std::fprintf(stderr,
                 "%s: only one of %s and %s is a bench matrix; documents "
                 "are not comparable\n",
                 argv[0], opts.baseline_path.c_str(),
                 opts.candidate_path.c_str());
    return 2;
  }
  if (bench && !opts.user_rules.empty()) {
    std::fprintf(stderr,
                 "%s: --metric-rtol and --ignore do not apply to bench "
                 "matrices\n",
                 argv[0]);
    return 2;
  }
  if (!bench && bench_flags) {
    std::fprintf(stderr,
                 "%s: --max-regress and --allow-missing apply only to "
                 "bench matrices\n",
                 argv[0]);
    return 2;
  }
  const JsonValue* bv = base.Find("schema_version");
  const JsonValue* cv = cand.Find("schema_version");
  if (bv != nullptr && cv != nullptr && bv->is_number() &&
      cv->is_number() && bv->number != cv->number) {
    std::fprintf(stderr,
                 "%s: schema_version mismatch (%.0f vs %.0f); reports "
                 "are not comparable\n",
                 argv[0], bv->number, cv->number);
    return 2;
  }
  if (opts.default_rtol < 0) {
    opts.default_rtol = bench ? opts.bench.ipc_rtol : kReportDefaultRtol;
  }
  opts.bench.ipc_rtol = opts.default_rtol;

  // Replayed reports (imoltp_trace replay --json) carry the window
  // metrics but no engine-side sections; don't flag those as missing.
  // Appended after the flag rules so an explicit --metric-rtol/--ignore
  // of the same prefix still wins.
  const auto is_replayed = [](const JsonValue& doc) {
    const JsonValue* meta = doc.Find("meta");
    const JsonValue* trace = meta != nullptr ? meta->Find("trace") : nullptr;
    const JsonValue* rep =
        trace != nullptr ? trace->Find("replayed") : nullptr;
    return rep != nullptr && rep->type == JsonValue::Type::kBool &&
           rep->boolean;
  };
  if (is_replayed(base) || is_replayed(cand)) {
    opts.user_rules.push_back({"latency_cycles", -1.0, 0.0});
    opts.user_rules.push_back({"spans", -1.0, 0.0});
    opts.user_rules.push_back({"robustness", -1.0, 0.0});
    opts.user_rules.push_back({"timeseries", -1.0, 0.0});
    opts.user_rules.push_back({"window.txn_module_breakdown", -1.0, 0.0});
  }

  std::vector<Failure> failures;
  if (!bench) {
    Compare(base, cand, "", opts, &failures);
  } else if (!DiffBenchMatrices(argv[0], base_text, cand_text, opts,
                                &failures)) {
    return 2;
  }

  if (opts.json_output) {
    imoltp::obs::JsonWriter w;
    w.BeginObject();
    w.KeyValue("verdict", failures.empty() ? "ok" : "drift");
    w.KeyValue("baseline", opts.baseline_path);
    w.KeyValue("candidate", opts.candidate_path);
    w.KeyValue("default_rtol", opts.default_rtol);
    w.KeyValue("failure_count",
               static_cast<uint64_t>(failures.size()));
    w.Key("failures");
    w.BeginArray();
    for (const Failure& f : failures) {
      w.BeginObject();
      w.KeyValue("path", f.path);
      w.KeyValue("detail", f.detail);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
    return failures.empty() ? 0 : 1;
  }

  if (failures.empty()) {
    std::printf("OK: %s and %s match within tolerance\n",
                opts.baseline_path.c_str(), opts.candidate_path.c_str());
    return 0;
  }
  for (const Failure& f : failures) {
    std::fprintf(stderr, "DRIFT %s: %s\n", f.path.c_str(),
                 f.detail.c_str());
  }
  std::fprintf(stderr, "%zu metric(s) drifted beyond tolerance\n",
               failures.size());
  return 1;
}
