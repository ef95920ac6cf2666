#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "core/microbench.h"
#include "mcsim/machine.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/report_json.h"
#include "obs/span.h"
#include "obs/timeline.h"

namespace imoltp {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, RoundTripsThroughParser) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("name", "micro \"quoted\" \n tab\t");
  w.KeyValue("count", uint64_t{18446744073709551615ULL});
  w.KeyValue("ipc", 1.25);
  w.KeyValue("neg", int64_t{-42});
  w.KeyValue("flag", true);
  w.Key("nested");
  w.BeginObject();
  w.KeyValue("pi", 3.14159);
  w.EndObject();
  w.Key("arr");
  w.BeginArray();
  w.Value(1);
  w.Value(2.5);
  w.Value("three");
  w.EndArray();
  w.EndObject();

  auto doc = obs::ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& v = doc.value();
  EXPECT_EQ(v.FindPath("name")->string, "micro \"quoted\" \n tab\t");
  EXPECT_DOUBLE_EQ(v.FindPath("count")->number, 1.8446744073709552e19);
  EXPECT_DOUBLE_EQ(v.FindPath("ipc")->number, 1.25);
  EXPECT_DOUBLE_EQ(v.FindPath("neg")->number, -42.0);
  EXPECT_TRUE(v.FindPath("flag")->boolean);
  EXPECT_DOUBLE_EQ(v.FindPath("nested.pi")->number, 3.14159);
  ASSERT_EQ(v.FindPath("arr")->array.size(), 3u);
  EXPECT_EQ(v.FindPath("arr")->array[2].string, "three");
  EXPECT_EQ(v.FindPath("no.such.path"), nullptr);
}

TEST(JsonWriterTest, IntegralDoublesPrintWithoutFraction) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("cycles", 123456.0);
  w.EndObject();
  EXPECT_NE(w.str().find("\"cycles\":123456"), std::string::npos);
  EXPECT_EQ(w.str().find("123456."), std::string::npos);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ParseJson("").ok());
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(obs::ParseJson("{} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ParseJson("nul").ok());
  EXPECT_TRUE(obs::ParseJson("{}  \n ").ok());
}

TEST(JsonParseTest, RejectsDuplicateObjectKeys) {
  const auto dup = obs::ParseJson("{\"a\":1,\"b\":{},\"a\":2}");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate object key \"a\""),
            std::string::npos);
  EXPECT_FALSE(obs::ParseJson("{\"m\":{\"x\":1,\"x\":1}}").ok());
  // The same key in different objects is fine.
  EXPECT_TRUE(obs::ParseJson("{\"a\":{\"x\":1},\"b\":{\"x\":1}}").ok());
}

TEST(JsonParseTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(obs::ParseJson(deep).ok());
}

TEST(ReadTextFileTest, ReadsWholeFileAndReportsMissingOnes) {
  const std::string path = testing::TempDir() + "read_text_file_test.json";
  // Longer than one read chunk, with an embedded NUL.
  std::string content(100000, 'x');
  content[5] = '\0';
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  auto read = obs::ReadTextFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);

  std::remove(path.c_str());
  EXPECT_FALSE(obs::ReadTextFile(path).ok());
}

// ----------------------------------------------------------- histogram

TEST(LatencyHistogramTest, EmptyHistogramIsAllZeros) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleClampsAllPercentiles) {
  obs::LatencyHistogram h;
  h.Add(1000.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.p50(), 1000.0);
  EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1000.0);
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBracketed) {
  obs::LatencyHistogram h;
  // 90 cheap transactions and 10 expensive stragglers.
  for (int i = 0; i < 90; ++i) h.Add(100.0 + i);
  for (int i = 0; i < 10; ++i) h.Add(50000.0 + i * 1000);
  EXPECT_EQ(h.count(), 100u);
  const double p50 = h.p50(), p90 = h.p90(), p99 = h.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_GE(p50, h.min());
  // p50 lands among the cheap samples, p99 among the stragglers.
  EXPECT_LT(p50, 1000.0);
  EXPECT_GT(p99, 10000.0);
}

TEST(LatencyHistogramTest, ResetClears) {
  obs::LatencyHistogram h;
  h.Add(42.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(LatencyHistogramTest, BinBoundsAreMonotonic) {
  EXPECT_DOUBLE_EQ(obs::LatencyHistogram::BinLowerBound(0), 0.0);
  for (int i = 1; i < obs::LatencyHistogram::kNumBins; ++i) {
    EXPECT_LT(obs::LatencyHistogram::BinLowerBound(i - 1),
              obs::LatencyHistogram::BinLowerBound(i));
    EXPECT_EQ(obs::LatencyHistogram::BinUpperBound(i - 1),
              obs::LatencyHistogram::BinLowerBound(i));
  }
}

TEST(LatencyHistogramTest, SamplesLandInTheirBin) {
  obs::LatencyHistogram h;
  h.Add(777.0);
  int hits = 0;
  for (int i = 0; i < obs::LatencyHistogram::kNumBins; ++i) {
    if (h.bins()[i] == 0) continue;
    ++hits;
    EXPECT_LE(obs::LatencyHistogram::BinLowerBound(i), 777.0);
    EXPECT_GT(obs::LatencyHistogram::BinUpperBound(i), 777.0);
  }
  EXPECT_EQ(hits, 1);
}

// --------------------------------------------------------------- spans

class SpanTest : public ::testing::Test {
 protected:
  SpanTest() : machine_(Config()), spans_(&machine_.config().cycle) {}

  static mcsim::MachineConfig Config() {
    mcsim::MachineConfig c;
    c.num_cores = 1;
    c.model_tlb = false;
    return c;
  }

  mcsim::MachineSim machine_;
  obs::SpanCollector spans_;
};

TEST_F(SpanTest, RecordsCyclesAndCount) {
  {
    obs::ScopedSpan span(&spans_, &machine_.core(0),
                         obs::SpanKind::kIndexProbe);
    machine_.core(0).Retire(1000);
  }
  const obs::SpanStats& s = spans_.stats(obs::SpanKind::kIndexProbe);
  EXPECT_EQ(s.count, 1u);
  EXPECT_GT(s.cycles, 0.0);
  EXPECT_DOUBLE_EQ(spans_.total_cycles(), s.cycles);
}

TEST_F(SpanTest, InnerSpanRecordsNothing) {
  {
    obs::ScopedSpan outer(&spans_, &machine_.core(0),
                          obs::SpanKind::kStorageAccess);
    machine_.core(0).Retire(500);
    {
      obs::ScopedSpan inner(&spans_, &machine_.core(0),
                            obs::SpanKind::kLogAppend);
      machine_.core(0).Retire(500);
    }
  }
  // The outer span owns all 1000 instructions; the inner one is a no-op,
  // so nothing is double-counted.
  EXPECT_EQ(spans_.stats(obs::SpanKind::kLogAppend).count, 0u);
  EXPECT_DOUBLE_EQ(spans_.stats(obs::SpanKind::kLogAppend).cycles, 0.0);
  EXPECT_EQ(spans_.stats(obs::SpanKind::kStorageAccess).count, 1u);
}

TEST_F(SpanTest, DisabledCoreIsNoOp) {
  machine_.core(0).set_enabled(false);
  {
    obs::ScopedSpan span(&spans_, &machine_.core(0),
                         obs::SpanKind::kLockAcquire);
    machine_.core(0).Retire(1000);
  }
  EXPECT_EQ(spans_.stats(obs::SpanKind::kLockAcquire).count, 0u);
}

TEST_F(SpanTest, NullCollectorIsNoOp) {
  obs::ScopedSpan span(nullptr, &machine_.core(0),
                       obs::SpanKind::kLockAcquire);
  machine_.core(0).Retire(10);
  // Destructor must not crash; nothing to assert beyond surviving.
}

TEST_F(SpanTest, ResetZeroesStats) {
  {
    obs::ScopedSpan span(&spans_, &machine_.core(0),
                         obs::SpanKind::kIndexProbe);
    machine_.core(0).Retire(100);
  }
  spans_.Reset();
  EXPECT_DOUBLE_EQ(spans_.total_cycles(), 0.0);
  EXPECT_EQ(spans_.stats(obs::SpanKind::kIndexProbe).count, 0u);
}

// ----------------------------------------- end-to-end reconciliation

// Small enough that the LLC amplification sits at its floor for every
// span and for the window, keeping the cycle model effectively linear —
// the precondition for span cycles reconciling against the window total.
core::ExperimentConfig SmallConfig() {
  core::ExperimentConfig cfg;
  cfg.engine = engine::EngineKind::kVoltDb;
  cfg.num_workers = 2;
  cfg.warmup_txns = 100;
  cfg.measure_txns = 400;
  cfg.seed = 7;
  return cfg;
}

core::MicroConfig SmallMicro() {
  core::MicroConfig mcfg;
  mcfg.nominal_bytes = 1ULL << 20;  // 1MB: fits in LLC
  mcfg.num_partitions = 2;
  return mcfg;
}

TEST(ObsEndToEndTest, SpansAndLatencyReconcileWithWindow) {
  core::ExperimentConfig cfg = SmallConfig();
  core::MicroConfig mcfg = SmallMicro();
  core::MicroBenchmark wl(mcfg);
  auto created = core::ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::ExperimentRunner& runner = **created;
  const mcsim::WindowReport report = runner.Run(&wl).value();

  // Histogram: one sample per (worker, measured transaction).
  const obs::LatencyHistogram& lat = runner.latency_histogram();
  EXPECT_EQ(lat.count(), cfg.measure_txns * cfg.num_workers);
  EXPECT_GT(lat.min(), 0.0);
  EXPECT_LE(lat.p50(), lat.p90());
  EXPECT_LE(lat.p90(), lat.p99());
  EXPECT_LE(lat.p99(), lat.max());

  // Spans: strictly within the profiled window, so their sum cannot
  // exceed the window's total cycles (report.cycles is per worker).
  const obs::SpanCollector& spans = runner.spans();
  const double window_total = report.cycles * report.num_workers;
  EXPECT_GT(spans.total_cycles(), 0.0);
  EXPECT_LE(spans.total_cycles(), window_total);
  // The micro-benchmark probes an index every transaction.
  EXPECT_GT(spans.stats(obs::SpanKind::kIndexProbe).count, 0u);
}

TEST(ObsEndToEndTest, RunReportJsonHasRequiredMetrics) {
  core::ExperimentConfig cfg = SmallConfig();
  core::MicroConfig mcfg = SmallMicro();
  core::MicroBenchmark wl(mcfg);
  auto created = core::ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::ExperimentRunner& runner = **created;
  const mcsim::WindowReport report = runner.Run(&wl).value();

  obs::RunInfo info;
  info.engine = "voltdb";
  info.workload = "micro";
  info.db_bytes = mcfg.nominal_bytes;
  info.workers = cfg.num_workers;
  info.measure_txns = cfg.measure_txns;
  info.seed = cfg.seed;
  const std::string json = obs::RunReportToJson(
      info, report, runner.machine()->config().cycle,
      &runner.latency_histogram(), &runner.spans());

  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& v = doc.value();
  EXPECT_DOUBLE_EQ(v.FindPath("schema_version")->number,
                   obs::kReportSchemaVersion);
  EXPECT_EQ(v.FindPath("meta.engine")->string, "voltdb");
  for (const char* path :
       {"window.ipc", "window.instructions_per_txn",
        "window.cycles_per_txn", "window.stalls_per_kinstr.total",
        "window.stalls_per_txn.total", "window.misses.llc_d",
        "window.engine_cycle_fraction",
        "window.cycle_accounting.retiring_fraction",
        "latency_cycles.p50", "latency_cycles.p90", "latency_cycles.p99",
        "spans.index-probe.cycles", "spans.total_cycles"}) {
    const obs::JsonValue* node = v.FindPath(path);
    ASSERT_NE(node, nullptr) << "missing " << path;
    EXPECT_TRUE(node->is_number()) << path;
  }
  // Module breakdown is an object keyed by module name.
  const obs::JsonValue* modules = v.FindPath("window.module_breakdown");
  ASSERT_NE(modules, nullptr);
  EXPECT_TRUE(modules->is_object());
  EXPECT_FALSE(modules->object.empty());
  // IPC in the JSON matches the report bit for bit.
  EXPECT_DOUBLE_EQ(v.FindPath("window.ipc")->number, report.ipc);
}

// ------------------------------------------------------------ timeline

TEST(TimelineRecorderTest, LaneCapacityBoundsMemory) {
  obs::TimelineRecorder recorder(/*num_cores=*/1,
                                 /*capacity_per_core=*/2);
  recorder.Record(0, obs::SpanKind::kIndexProbe, 0.0, 10.0);
  recorder.Record(0, obs::SpanKind::kLogAppend, 10.0, 20.0);
  recorder.Record(0, obs::SpanKind::kLockAcquire, 20.0, 30.0);
  EXPECT_EQ(recorder.events(0).size(), 2u);
  EXPECT_EQ(recorder.dropped(0), 1u);

  recorder.Reset();
  EXPECT_TRUE(recorder.events(0).empty());
  EXPECT_EQ(recorder.dropped(0), 0u);
}

TEST(TimelineRecorderTest, OutOfRangeCoreFoldsToLaneZero) {
  obs::TimelineRecorder recorder(/*num_cores=*/2);
  recorder.Record(7, obs::SpanKind::kIndexProbe, 0.0, 1.0);
  EXPECT_EQ(recorder.events(0).size(), 1u);
  EXPECT_TRUE(recorder.events(1).empty());
}

/// A two-bucket, one-core sampled report for the export tests.
mcsim::WindowReport SampledReport() {
  mcsim::WindowReport r;
  r.sample_every = 100;
  mcsim::CoreSeries series;
  series.core = 0;
  for (int i = 0; i < 2; ++i) {
    mcsim::SeriesBucket b;
    b.t0 = 100.0 * i;
    b.t1 = 100.0 * (i + 1);
    b.instructions = 300;
    b.ipc = 1.5;
    series.buckets.push_back(b);
  }
  r.timeseries.push_back(std::move(series));
  return r;
}

TEST(TimelineTest, ExportValidatesAndCountsEvents) {
  obs::TimelineRecorder recorder(/*num_cores=*/2);
  recorder.Record(0, obs::SpanKind::kIndexProbe, 1000.0, 1200.0);
  recorder.Record(0, obs::SpanKind::kStorageAccess, 1200.0, 1500.0);
  recorder.Record(1, obs::SpanKind::kLogAppend, 1100.0, 1400.0);

  obs::TimelineOptions opts;
  opts.engine = "voltdb";
  opts.workload = "micro";
  const std::string json =
      obs::TimelineToJson(opts, SampledReport(), &recorder);

  uint64_t spans = 0;
  uint64_t counters = 0;
  const Status s = obs::ValidateTimelineJson(json, &spans, &counters);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(spans, 3u);
  // Three counter tracks (ipc, stalls/kinstr, abort rate) per bucket.
  EXPECT_EQ(counters, 6u);

  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue& v = doc.value();
  EXPECT_EQ(v.FindPath("metadata.engine")->string, "voltdb");
  EXPECT_EQ(v.FindPath("metadata.workload")->string, "micro");
  EXPECT_DOUBLE_EQ(v.FindPath("metadata.sample_every")->number, 100.0);
  ASSERT_NE(v.FindPath("traceEvents"), nullptr);
  EXPECT_TRUE(v.FindPath("traceEvents")->is_array());
}

TEST(TimelineTest, SpanTimestampsNormalizeToTheEarliestEvent) {
  // Spans arrive in cumulative machine time (warm-up included); the
  // export must shift them so the window starts near t=0.
  obs::TimelineRecorder recorder(/*num_cores=*/1);
  recorder.Record(0, obs::SpanKind::kIndexProbe, 500000.0, 500200.0);
  recorder.Record(0, obs::SpanKind::kLogAppend, 500200.0, 500600.0);

  obs::TimelineOptions opts;
  const std::string json =
      obs::TimelineToJson(opts, mcsim::WindowReport{}, &recorder);
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  double min_ts = 1e300;
  for (const obs::JsonValue& e : doc.value().FindPath("traceEvents")->array) {
    const obs::JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    min_ts = std::min(min_ts, e.Find("ts")->number);
  }
  EXPECT_DOUBLE_EQ(min_ts, 0.0);
}

TEST(TimelineTest, NullRecorderStillEmitsCounterTracks) {
  obs::TimelineOptions opts;
  const std::string json =
      obs::TimelineToJson(opts, SampledReport(), nullptr);
  uint64_t spans = 0;
  uint64_t counters = 0;
  ASSERT_TRUE(obs::ValidateTimelineJson(json, &spans, &counters).ok());
  EXPECT_EQ(spans, 0u);
  EXPECT_GT(counters, 0u);
}

TEST(TimelineValidateTest, RejectsContractViolations) {
  // Not JSON at all.
  EXPECT_FALSE(obs::ValidateTimelineJson("not json").ok());
  // Missing / mistyped traceEvents.
  EXPECT_FALSE(obs::ValidateTimelineJson("{}").ok());
  EXPECT_FALSE(obs::ValidateTimelineJson("{\"traceEvents\":5}").ok());
  // Event without a phase.
  EXPECT_FALSE(obs::ValidateTimelineJson(
                   "{\"traceEvents\":[{\"name\":\"x\"}]}")
                   .ok());
  // Complete event without a duration.
  EXPECT_FALSE(
      obs::ValidateTimelineJson(
          "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\",\"ts\":1}]}")
          .ok());
  // Counter event without args.
  EXPECT_FALSE(
      obs::ValidateTimelineJson(
          "{\"traceEvents\":[{\"ph\":\"C\",\"name\":\"x\",\"ts\":1}]}")
          .ok());
  // Minimal valid documents pass.
  EXPECT_TRUE(obs::ValidateTimelineJson("{\"traceEvents\":[]}").ok());
  EXPECT_TRUE(
      obs::ValidateTimelineJson(
          "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\"}]}")
          .ok());
}

TEST(TimelineEndToEndTest, ExperimentTimelineValidates) {
  // The full imoltp_run wiring: sampler armed, recorder attached to the
  // engine's span collector, export validated — the same check CI runs
  // on a freshly emitted timeline.
  core::ExperimentConfig cfg = SmallConfig();
  cfg.sampler.every_cycles = 2000;
  core::MicroConfig mcfg = SmallMicro();
  core::MicroBenchmark wl(mcfg);
  auto created = core::ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::ExperimentRunner& runner = **created;

  obs::TimelineRecorder recorder(cfg.num_workers);
  runner.engine()->span_collector()->set_recorder(&recorder);
  const auto run = runner.Run(&wl);
  runner.engine()->span_collector()->set_recorder(nullptr);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  obs::TimelineOptions opts;
  opts.engine = "voltdb";
  opts.workload = "micro";
  const std::string json = obs::TimelineToJson(opts, *run, &recorder);

  uint64_t spans = 0;
  uint64_t counters = 0;
  const Status s = obs::ValidateTimelineJson(json, &spans, &counters);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The micro-benchmark probes an index on every transaction, and the
  // sampled window produced counter buckets for both cores.
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u);
  ASSERT_EQ(run->timeseries.size(), 2u);
}

}  // namespace
}  // namespace imoltp
