// Tests for the host-side self-observability layer (schema v5): the
// host-metric primitives, the `host` report section, the bench-matrix
// round trip and tolerance rules behind imoltp_bench/imoltp_diff,
// and the determinism guarantees around all of it (host data must never
// leak into fingerprinted sections; ConvergenceCheck must be safe on
// degenerate series).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "mcsim/profiler.h"
#include "obs/bench_json.h"
#include "obs/host_metrics.h"
#include "obs/json.h"
#include "obs/report_json.h"
#include "obs/timeline.h"

namespace imoltp {
namespace {

// ------------------------------------------------------ primitives

TEST(HostMetricsTest, MonotonicClockNeverGoesBackwards) {
  const double a = obs::MonotonicSeconds();
  double burn = 0.0;
  for (int i = 0; i < 100000; ++i) burn += static_cast<double>(i);
  const double b = obs::MonotonicSeconds();
  EXPECT_GT(burn, 0.0);
  EXPECT_GE(b, a);
}

TEST(HostMetricsTest, PeakRssIsSane) {
  // ru_maxrss is supported on every platform CI runs on; a test binary
  // with gtest linked in certainly exceeds 1 MB resident.
  EXPECT_GT(obs::PeakRssBytes(), uint64_t{1} << 20);
}

TEST(HostMetricsTest, PhaseTimerAccumulatesAcrossScopes) {
  double sink = 0.0;
  { obs::PhaseTimer t(&sink); }
  const double first = sink;
  EXPECT_GE(first, 0.0);
  { obs::PhaseTimer t(&sink); }
  EXPECT_GE(sink, first);  // += semantics: second scope adds, not resets
}

// ------------------------------------------------- host JSON section

obs::HostPerf SampleHostPerf() {
  obs::HostPerf perf;
  perf.parallel_mode = "interleaved";
  perf.populate_seconds = 0.25;
  perf.warmup_seconds = 0.5;
  perf.measure_seconds = 2.0;
  perf.simulated_refs = 1000000;
  perf.simulated_instructions = 4000000;
  perf.refs_per_second = 500000.0;
  perf.instructions_per_second = 2000000.0;
  perf.txns_per_second = 1500.0;
  perf.peak_rss_bytes = 64ull << 20;
  return perf;
}

TEST(HostPerfJsonTest, EmitsEveryField) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("host");
  obs::HostPerfToJson(w, SampleHostPerf());
  w.EndObject();
  auto doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& v = doc.value();
  EXPECT_EQ(v.FindPath("host.parallel_mode")->string, "interleaved");
  EXPECT_DOUBLE_EQ(v.FindPath("host.phase_seconds.populate")->number,
                   0.25);
  EXPECT_DOUBLE_EQ(v.FindPath("host.phase_seconds.measure")->number, 2.0);
  EXPECT_DOUBLE_EQ(v.FindPath("host.phase_seconds.total")->number, 2.75);
  EXPECT_DOUBLE_EQ(
      v.FindPath("host.measure.simulated_refs")->number, 1000000.0);
  EXPECT_DOUBLE_EQ(v.FindPath("host.measure.refs_per_sec")->number,
                   500000.0);
  EXPECT_DOUBLE_EQ(
      v.FindPath("host.measure.committed_txns_per_sec")->number, 1500.0);
  EXPECT_DOUBLE_EQ(v.FindPath("host.peak_rss_bytes")->number,
                   static_cast<double>(64ull << 20));
}

TEST(HostPerfJsonTest, ReportCarriesHostSectionOnlyWhenProvided) {
  obs::RunInfo info;
  info.engine = "voltdb";
  info.workload = "micro";
  mcsim::WindowReport report;
  mcsim::CycleModelParams params;
  const obs::HostPerf perf = SampleHostPerf();

  const std::string with_host = obs::RunReportToJson(
      info, report, params, nullptr, nullptr, nullptr, &perf);
  auto doc = obs::ParseJson(with_host);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->FindPath("schema_version")->number,
            obs::kReportSchemaVersion);
  ASSERT_NE(doc->FindPath("host"), nullptr);
  EXPECT_EQ(doc->FindPath("host.parallel_mode")->string, "interleaved");

  const std::string without_host =
      obs::RunReportToJson(info, report, params, nullptr, nullptr);
  auto doc2 = obs::ParseJson(without_host);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->FindPath("host"), nullptr);
}

// The determinism contract: the fingerprinted/diffed sections of two
// reports that differ ONLY in host data must be bit-identical. Strip
// the host subtree textually and compare.
TEST(HostPerfJsonTest, HostSectionIsTextuallySeparable) {
  obs::RunInfo info;
  info.engine = "hyper";
  info.workload = "tpcb";
  mcsim::WindowReport report;
  report.ipc = 0.75;
  mcsim::CycleModelParams params;

  obs::HostPerf fast = SampleHostPerf();
  obs::HostPerf slow = SampleHostPerf();
  slow.measure_seconds = 20.0;
  slow.refs_per_second = 50000.0;

  const std::string a = obs::RunReportToJson(info, report, params,
                                             nullptr, nullptr, nullptr,
                                             &fast);
  const std::string b = obs::RunReportToJson(info, report, params,
                                             nullptr, nullptr, nullptr,
                                             &slow);
  // The host object is the last section before the closing brace, so
  // everything before the `"host"` key must match bit-for-bit.
  const size_t ha = a.find("\"host\"");
  const size_t hb = b.find("\"host\"");
  ASSERT_NE(ha, std::string::npos);
  ASSERT_NE(hb, std::string::npos);
  EXPECT_EQ(a.substr(0, ha), b.substr(0, hb));
  EXPECT_NE(a.substr(ha), b.substr(hb));
}

// ------------------------------------------------- bench round trip

obs::BenchMatrix SampleMatrix() {
  obs::BenchMatrix m;
  m.label = "baseline";
  m.commit = "abc123";
  m.config = "--engines=voltdb --workloads=tpcb";
  m.created_unix = 1754600000;
  obs::BenchCell c;
  c.id = "voltdb/tpcb/serial/w2";
  c.engine = "voltdb";
  c.workload = "tpcb";
  c.mode = "serial";
  c.workers = 2;
  c.warmup_txns = 500;
  c.measure_txns = 2000;
  c.seed = 42;
  c.ipc = 0.8123;
  c.instructions_per_txn = 15000.5;
  c.cycles_per_txn = 19000.25;
  c.stalls_per_kinstr = {1.5, 2.5, 3.5, 10.0, 20.0, 30.0};
  c.committed = 4000;
  c.aborts = 12;
  c.wall_seconds = 1.25;
  c.total_wall_seconds = 2.5;
  c.simulated_refs = 9000000;
  c.refs_per_sec = 7200000.0;
  c.instructions_per_sec = 30000000.0;
  c.peak_rss_bytes = 48ull << 20;
  m.cells.push_back(c);
  return m;
}

TEST(BenchJsonTest, MatrixRoundTripsLosslessly) {
  const obs::BenchMatrix m = SampleMatrix();
  auto parsed = obs::ParseBenchMatrix(obs::BenchMatrixToJson(m));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::BenchMatrix& r = *parsed;
  EXPECT_EQ(r.label, "baseline");
  EXPECT_EQ(r.commit, "abc123");
  EXPECT_EQ(r.created_unix, 1754600000u);
  ASSERT_EQ(r.cells.size(), 1u);
  const obs::BenchCell& c = r.cells[0];
  EXPECT_EQ(c.id, "voltdb/tpcb/serial/w2");
  EXPECT_EQ(c.workers, 2);
  EXPECT_DOUBLE_EQ(c.ipc, 0.8123);
  EXPECT_DOUBLE_EQ(c.instructions_per_txn, 15000.5);
  EXPECT_DOUBLE_EQ(c.stalls_per_kinstr[5], 30.0);
  EXPECT_EQ(c.committed, 4000u);
  EXPECT_DOUBLE_EQ(c.wall_seconds, 1.25);
  EXPECT_DOUBLE_EQ(c.refs_per_sec, 7200000.0);
  EXPECT_EQ(c.peak_rss_bytes, 48ull << 20);
}

TEST(BenchJsonTest, ParserRejectsStructuralErrors) {
  EXPECT_FALSE(obs::ParseBenchMatrix("[]").ok());
  EXPECT_FALSE(obs::ParseBenchMatrix("{\"label\":\"x\"}").ok());
  EXPECT_FALSE(
      obs::ParseBenchMatrix(
          "{\"bench_schema_version\":999,\"cells\":[]}")
          .ok());
  // A cell without an id cannot be matched and must be rejected.
  EXPECT_FALSE(obs::ParseBenchMatrix(
                   "{\"bench_schema_version\":1,\"cells\":[{}]}")
                   .ok());
  // Sparse timing-only cells are fine.
  auto sparse = obs::ParseBenchMatrix(
      "{\"bench_schema_version\":1,\"cells\":"
      "[{\"id\":\"a/b/c/w1\",\"wall_seconds\":3.5}]}");
  ASSERT_TRUE(sparse.ok());
  EXPECT_DOUBLE_EQ(sparse->cells[0].wall_seconds, 3.5);
  EXPECT_DOUBLE_EQ(sparse->cells[0].ipc, 0.0);
}

// ------------------------------------------------- tolerance rules

TEST(BenchCompareTest, SelfCompareIsClean) {
  const obs::BenchMatrix m = SampleMatrix();
  EXPECT_TRUE(obs::CompareBenchMatrices(m, m, {}).empty());
}

TEST(BenchCompareTest, RefsPerSecRegressionBeyondFloorFails) {
  const obs::BenchMatrix base = SampleMatrix();
  obs::BenchMatrix cand = base;
  // ISSUE acceptance: an injected >20% refs/sec regression must fail
  // under the default 15% floor.
  cand.cells[0].refs_per_sec = base.cells[0].refs_per_sec * 0.75;
  const auto failures = obs::CompareBenchMatrices(base, cand, {});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].metric, "refs_per_sec");

  // A speed-up never fails (one-sided rule).
  cand.cells[0].refs_per_sec = base.cells[0].refs_per_sec * 2.0;
  EXPECT_TRUE(obs::CompareBenchMatrices(base, cand, {}).empty());
}

TEST(BenchCompareTest, SimulatedDriftIsSymmetric) {
  const obs::BenchMatrix base = SampleMatrix();
  obs::BenchMatrix cand = base;
  cand.cells[0].ipc = base.cells[0].ipc * 1.10;  // faster, still drift
  auto failures = obs::CompareBenchMatrices(base, cand, {});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].metric, "ipc");

  obs::BenchCompareOptions loose;
  loose.ipc_rtol = 0.25;
  EXPECT_TRUE(obs::CompareBenchMatrices(base, cand, loose).empty());
}

TEST(BenchCompareTest, MissingCellFailsUnlessAllowed) {
  const obs::BenchMatrix base = SampleMatrix();
  obs::BenchMatrix cand = base;
  cand.cells.clear();
  auto failures = obs::CompareBenchMatrices(base, cand, {});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].metric, "cell");

  obs::BenchCompareOptions opts;
  opts.allow_missing = true;
  EXPECT_TRUE(obs::CompareBenchMatrices(base, cand, opts).empty());
}

TEST(BenchCompareTest, TimingOnlyCellsFallBackToWallClock) {
  obs::BenchMatrix base;
  obs::BenchCell c;
  c.id = "voltdb/tpcb/serial/w1";
  c.wall_seconds = 1.0;
  base.cells.push_back(c);

  obs::BenchMatrix cand = base;
  cand.cells[0].wall_seconds = 1.3;  // 30% slower than the 15% ceiling
  auto failures = obs::CompareBenchMatrices(base, cand, {});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].metric, "wall_seconds");

  cand.cells[0].wall_seconds = 1.1;  // within the ceiling
  EXPECT_TRUE(obs::CompareBenchMatrices(base, cand, {}).empty());
}

// --------------------------------------------- convergence edge cases

TEST(ConvergenceTest, EmptySeriesIsCheckedFalseConvergedTrue) {
  mcsim::WindowReport report;  // no timeseries at all
  const mcsim::ConvergenceCheck c = core::CheckConvergence(report, 0.1);
  EXPECT_FALSE(c.checked);
  EXPECT_TRUE(c.converged);
}

TEST(ConvergenceTest, SingleBucketSeriesIsCheckedFalseConvergedTrue) {
  mcsim::WindowReport report;
  mcsim::CoreSeries series;
  series.core = 0;
  mcsim::SeriesBucket b;
  b.t0 = 0;
  b.t1 = 1000;
  b.instructions = 800;
  b.model_cycles = 1000.0;
  b.ipc = 0.8;
  series.buckets.push_back(b);
  report.timeseries.push_back(series);
  const mcsim::ConvergenceCheck c = core::CheckConvergence(report, 0.1);
  EXPECT_FALSE(c.checked);
  EXPECT_TRUE(c.converged);
  EXPECT_DOUBLE_EQ(c.divergence, 0.0);
}

// ------------------------------------------------- retry flow events

TEST(TimelineFlowTest, AttemptChainsEmitLinkedFlowEvents) {
  obs::TimelineRecorder recorder(2, 1024);
  // One transaction on core 0 that aborted twice then committed.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    obs::AttemptEvent ev;
    ev.flow_id = 7;
    ev.attempt = attempt;
    ev.committed = attempt == 3;
    ev.t0 = attempt * 1000.0;
    ev.t1 = attempt * 1000.0 + 400.0;
    recorder.RecordAttempt(0, ev);
  }
  mcsim::WindowReport report;
  obs::TimelineOptions options;
  options.engine = "shore-mt";
  options.workload = "tpcb";
  const std::string json =
      obs::TimelineToJson(options, report, &recorder);

  uint64_t spans = 0, counters = 0, flows = 0;
  ASSERT_TRUE(
      obs::ValidateTimelineJson(json, &spans, &counters, &flows).ok());
  // 3 attempts → one "s", one "t" per continuation, one "f": the chain
  // start, middle, and finish each bind to their attempt slice.
  EXPECT_EQ(flows, 3u);

  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok());
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int retry_slices = 0;
  int finishes = 0;
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.Find("ph");
    const obs::JsonValue* cat = e.Find("cat");
    if (cat != nullptr && cat->string == "retry" && ph->string == "X") {
      ++retry_slices;
    }
    if (ph != nullptr && ph->string == "f") {
      ++finishes;
      EXPECT_EQ(e.Find("bp")->string, "e");
      EXPECT_TRUE(e.Find("id")->is_number());
    }
  }
  EXPECT_EQ(retry_slices, 3);
  EXPECT_EQ(finishes, 1);
}

TEST(TimelineFlowTest, RecorderCapacityBoundsAttempts) {
  obs::TimelineRecorder recorder(1, 2);
  for (int i = 0; i < 10; ++i) {
    obs::AttemptEvent ev;
    ev.flow_id = static_cast<uint64_t>(i);
    ev.attempt = 1;
    recorder.RecordAttempt(0, ev);
  }
  EXPECT_EQ(recorder.attempts(0).size(), 2u);
}

}  // namespace
}  // namespace imoltp
