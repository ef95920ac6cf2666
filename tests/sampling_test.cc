// Time-resolved profiling (docs/OBSERVABILITY.md): the periodic counter
// sampler, the windowed time-series it feeds, and the experiment-level
// contracts built on top of it.
//
// Two properties are load-bearing enough to enforce here:
//
//  1. Determinism. The sample clock is the retirement clock (base
//     cycles), which depends only on the retired instruction stream —
//     so same seed + ParallelMode::kSerial must reproduce bucket
//     boundaries and retired-work columns bit-identically on every
//     engine, exactly like the whole-window counters already do
//     (tests/parallel_test.cc).
//
//  2. No observer effect. Arming the sampler reads counters and never
//     writes them: a sampled run must retire the identical stream an
//     unsampled run does, both at the machine level (same literal
//     address trace) and end-to-end through an engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcc.h"
#include "mcsim/machine.h"
#include "mcsim/profiler.h"
#include "mcsim/sampler.h"

namespace imoltp {
namespace {

using core::ExperimentConfig;
using core::MicroBenchmark;
using core::MicroConfig;
using core::ParallelMode;
using core::RunExperiment;
using engine::EngineKind;
using mcsim::CoreCounters;
using mcsim::CoreSampler;
using mcsim::CounterSample;
using mcsim::CycleModelParams;
using mcsim::MachineConfig;
using mcsim::MachineSim;
using mcsim::Profiler;
using mcsim::SamplerConfig;
using mcsim::WindowReport;

MachineConfig NoTlb(int cores = 1) {
  MachineConfig c;
  c.model_tlb = false;
  c.num_cores = cores;
  return c;
}

// ------------------------------------------------------ CoreSampler

CoreCounters AtBaseCycles(double base_cycles) {
  CoreCounters c;
  c.base_cycles = base_cycles;
  c.instructions = static_cast<uint64_t>(base_cycles * 3.0);
  return c;
}

TEST(CoreSamplerTest, SamplesOnEveryPeriodCrossing) {
  CycleModelParams params;
  SamplerConfig config;
  config.every_cycles = 100;
  CoreSampler s(config, &params);
  s.Restart(AtBaseCycles(0));

  s.MaybeSample(AtBaseCycles(50));   // before the first boundary
  EXPECT_EQ(s.seq(), 0u);
  s.MaybeSample(AtBaseCycles(100));  // crosses 100
  s.MaybeSample(AtBaseCycles(199));  // not yet at 200
  s.MaybeSample(AtBaseCycles(200));  // crosses 200
  EXPECT_EQ(s.seq(), 2u);
  EXPECT_EQ(s.dropped(), 0u);

  const std::vector<CounterSample> samples = s.SamplesSince(0);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].retire_cycles, 100.0);
  EXPECT_DOUBLE_EQ(samples[1].retire_cycles, 200.0);
}

TEST(CoreSamplerTest, BurstAcrossManyPeriodsEmitsOneSample) {
  // A single huge retire burst advances the clock past several
  // boundaries; it must emit one snapshot, not one per boundary
  // (duplicate snapshots would create zero-width buckets).
  CycleModelParams params;
  SamplerConfig config;
  config.every_cycles = 100;
  CoreSampler s(config, &params);
  s.Restart(AtBaseCycles(0));

  s.MaybeSample(AtBaseCycles(950));  // jumps over 100..900 at once
  EXPECT_EQ(s.seq(), 1u);
  // The clock is re-phased past the burst: the next boundary is 1000.
  s.MaybeSample(AtBaseCycles(999));
  EXPECT_EQ(s.seq(), 1u);
  s.MaybeSample(AtBaseCycles(1000));
  EXPECT_EQ(s.seq(), 2u);
}

TEST(CoreSamplerTest, RingWrapKeepsNewestAndCountsDropped) {
  CycleModelParams params;
  SamplerConfig config;
  config.every_cycles = 10;
  config.capacity = 4;
  CoreSampler s(config, &params);
  s.Restart(AtBaseCycles(0));

  for (int i = 1; i <= 10; ++i) {
    s.MaybeSample(AtBaseCycles(10.0 * i));
  }
  EXPECT_EQ(s.seq(), 10u);
  EXPECT_EQ(s.dropped(), 6u);

  // Only the newest `capacity` samples survive, oldest first.
  const std::vector<CounterSample> samples = s.SamplesSince(0);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples.front().retire_cycles, 70.0);
  EXPECT_DOUBLE_EQ(samples.back().retire_cycles, 100.0);
}

TEST(CoreSamplerTest, RestartRephasesToCurrentCounters) {
  CycleModelParams params;
  SamplerConfig config;
  config.every_cycles = 100;
  CoreSampler s(config, &params);
  s.Restart(AtBaseCycles(0));
  s.MaybeSample(AtBaseCycles(500));
  ASSERT_EQ(s.seq(), 1u);

  // Restart mid-stream (the profiler does this at window begin): the
  // ring rewinds and the next boundary is relative to the restart
  // point, not to cycle zero.
  s.Restart(AtBaseCycles(500));
  EXPECT_EQ(s.seq(), 0u);
  s.MaybeSample(AtBaseCycles(599));
  EXPECT_EQ(s.seq(), 0u);
  s.MaybeSample(AtBaseCycles(600));
  EXPECT_EQ(s.seq(), 1u);
}

// ---------------------------------------------- machine + profiler

TEST(MachineSamplerTest, ArmAndDisarmFanOutToEveryCore) {
  MachineSim m(NoTlb(2));
  EXPECT_EQ(m.sampler(0), nullptr);
  EXPECT_EQ(m.sampler(1), nullptr);

  SamplerConfig config;
  config.every_cycles = 100;
  m.ArmSampler(config);
  ASSERT_NE(m.sampler(0), nullptr);
  ASSERT_NE(m.sampler(1), nullptr);
  EXPECT_EQ(m.sampler(0)->every_cycles(), 100u);

  m.ArmSampler(SamplerConfig{});  // every_cycles == 0 disarms
  EXPECT_EQ(m.sampler(0), nullptr);
  EXPECT_EQ(m.sampler(1), nullptr);
}

TEST(MachineSamplerTest, NoObserverEffectOnIdenticalAddressTrace) {
  // Same literal address trace through an armed and an unarmed machine:
  // every counter must agree exactly. Sampling reads counters, never
  // writes them.
  MachineSim sampled(NoTlb(1));
  MachineSim plain(NoTlb(1));
  SamplerConfig config;
  config.every_cycles = 50;
  sampled.ArmSampler(config);

  for (MachineSim* m : {&sampled, &plain}) {
    mcsim::CoreSim& core = m->core(0);
    for (int t = 0; t < 32; ++t) {
      core.BeginTransaction();
      for (int r = 0; r < 8; ++r) {
        core.Read(0x10000 + 64 * ((t * 7 + r) % 128), 8);
        core.Retire(40);
      }
      core.Write(0x80000 + 64 * (t % 16), 8);
      core.Retire(25);
    }
    core.CountAbort();
  }
  // The sampler did fire...
  ASSERT_NE(sampled.sampler(0), nullptr);
  EXPECT_GT(sampled.sampler(0)->seq(), 0u);

  // ...and perturbed nothing.
  const CoreCounters& a = sampled.core(0).counters();
  const CoreCounters& b = plain.core(0).counters();
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.aborted_txns, b.aborted_txns);
  EXPECT_EQ(a.data_accesses, b.data_accesses);
  EXPECT_EQ(a.code_line_fetches, b.code_line_fetches);
  EXPECT_DOUBLE_EQ(a.base_cycles, b.base_cycles);
  EXPECT_EQ(a.misses.l1d, b.misses.l1d);
  EXPECT_EQ(a.misses.l1i, b.misses.l1i);
  EXPECT_EQ(a.misses.l2d, b.misses.l2d);
  EXPECT_EQ(a.misses.l2i, b.misses.l2i);
  EXPECT_EQ(a.misses.llc_d, b.misses.llc_d);
  EXPECT_EQ(a.misses.llc_i, b.misses.llc_i);
}

TEST(ProfilerTimeseriesTest, WindowRestartsSamplerAndBucketsAreRelative) {
  MachineSim m(NoTlb(1));
  SamplerConfig config;
  config.every_cycles = 100;  // 300 instructions at the inherent CPI
  m.ArmSampler(config);

  // Pre-window work (warm-up): takes samples that must NOT leak into
  // the window's series.
  m.core(0).Retire(900);  // base_cycles = 300
  EXPECT_GT(m.sampler(0)->seq(), 0u);

  Profiler p(&m);
  p.BeginWindow({0});
  EXPECT_EQ(m.sampler(0)->seq(), 0u);  // restarted at window begin
  m.core(0).Retire(300);               // +100 base cycles -> sample
  m.core(0).Retire(300);
  m.core(0).Retire(300);
  const WindowReport r = p.EndWindow();

  EXPECT_EQ(r.sample_every, 100u);
  ASSERT_EQ(r.timeseries.size(), 1u);
  const mcsim::CoreSeries& series = r.timeseries[0];
  EXPECT_EQ(series.core, 0);
  EXPECT_EQ(series.dropped, 0u);
  // Three samples, window ending exactly on the last boundary: three
  // buckets, no closing partial. Boundaries are window-relative.
  ASSERT_EQ(series.buckets.size(), 3u);
  for (size_t i = 0; i < series.buckets.size(); ++i) {
    const mcsim::SeriesBucket& b = series.buckets[i];
    EXPECT_DOUBLE_EQ(b.t0, 100.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(b.t1, 100.0 * static_cast<double>(i + 1));
    EXPECT_EQ(b.instructions, 300u);
  }
}

TEST(ProfilerTimeseriesTest, ClosingPartialBucketCoversWindowTail) {
  MachineSim m(NoTlb(1));
  SamplerConfig config;
  config.every_cycles = 100;
  m.ArmSampler(config);

  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(300);  // sample at t=100
  m.core(0).Retire(120);  // window ends at t=140, past the boundary
  const WindowReport r = p.EndWindow();

  ASSERT_EQ(r.timeseries.size(), 1u);
  const auto& buckets = r.timeseries[0].buckets;
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[1].t0, 100.0);
  EXPECT_DOUBLE_EQ(buckets[1].t1, 140.0);
  EXPECT_EQ(buckets[0].instructions + buckets[1].instructions, 420u);
}

TEST(ProfilerTimeseriesTest, UnsampledWindowHasEmptySeries) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(900);
  const WindowReport r = p.EndWindow();
  EXPECT_EQ(r.sample_every, 0u);
  EXPECT_TRUE(r.timeseries.empty());
  EXPECT_FALSE(r.convergence.checked);
}

// ---------------------------------------------------- end-to-end

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

ExperimentConfig SampledConfig(EngineKind kind, ParallelMode mode) {
  ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.num_workers = 2;
  cfg.warmup_txns = 100;
  cfg.measure_txns = 300;
  cfg.seed = 11;
  cfg.parallel_mode = mode;
  cfg.sampler.every_cycles = 2000;
  return cfg;
}

MicroConfig SmallMicro() {
  MicroConfig mcfg;
  mcfg.nominal_bytes = 2ULL << 20;
  mcfg.num_partitions = 2;
  return mcfg;
}

/// The placement-independent subset of a sampled series, as a string:
/// bucket boundaries (retirement clock) and retired-work columns.
/// Misses, model cycles, IPC, and TLB walks are deliberately absent —
/// they hash host addresses and carry per-run placement noise.
std::string DeterministicFingerprint(const WindowReport& r) {
  std::string out =
      "every=" + std::to_string(r.sample_every) + "\n";
  for (const mcsim::CoreSeries& series : r.timeseries) {
    out += "core " + std::to_string(series.core) +
           " dropped=" + std::to_string(series.dropped) + "\n";
    for (const mcsim::SeriesBucket& b : series.buckets) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  [%.17g,%.17g) i=%llu t=%llu a=%llu m=%llu\n",
                    b.t0, b.t1,
                    static_cast<unsigned long long>(b.instructions),
                    static_cast<unsigned long long>(b.transactions),
                    static_cast<unsigned long long>(b.aborted_txns),
                    static_cast<unsigned long long>(b.mispredictions));
      out += line;
    }
  }
  return out;
}

TEST(SampledExperimentTest, DeterministicSeriesOnAllEngines) {
  // Two same-seed serial runs: the deterministic fingerprint must match
  // byte for byte on every engine. This is the time-resolved extension
  // of ParallelModeTest.SerialRepeatsOnAllEngines.
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(engine::EngineKindName(kind));
    MicroConfig mcfg = SmallMicro();
    MicroBenchmark wl_a(mcfg), wl_b(mcfg);

    auto a = RunExperiment(SampledConfig(kind, ParallelMode::kSerial),
                           &wl_a);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = RunExperiment(SampledConfig(kind, ParallelMode::kSerial),
                           &wl_b);
    ASSERT_TRUE(b.ok()) << b.status().ToString();

    ASSERT_EQ(a->timeseries.size(), 2u);
    EXPECT_GT(a->timeseries[0].buckets.size(), 1u);
    EXPECT_EQ(DeterministicFingerprint(*b), DeterministicFingerprint(*a));
  }
}

TEST(SampledExperimentTest, SamplingHasNoObserverEffect) {
  // End-to-end restatement of the machine-level guarantee: a sampled
  // run and an unsampled run of the same cell retire the identical
  // stream. Retired work compares bit-identically; miss-derived
  // metrics carry only the usual cross-run placement noise.
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl_plain(mcfg), wl_sampled(mcfg);

  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  cfg.sampler.every_cycles = 0;
  auto plain = RunExperiment(cfg, &wl_plain);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  cfg.sampler.every_cycles = 1000;
  auto sampled = RunExperiment(cfg, &wl_sampled);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();

  EXPECT_TRUE(plain->timeseries.empty());
  EXPECT_FALSE(sampled->timeseries.empty());
  EXPECT_DOUBLE_EQ(sampled->instructions, plain->instructions);
  EXPECT_DOUBLE_EQ(sampled->transactions, plain->transactions);
  EXPECT_DOUBLE_EQ(sampled->mispredictions, plain->mispredictions);
  EXPECT_DOUBLE_EQ(sampled->base_cycles, plain->base_cycles);
  EXPECT_NEAR(sampled->ipc, plain->ipc, 0.02 * plain->ipc);
}

TEST(SampledExperimentTest, BucketsTileTheWindowExactly) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  const auto run = RunExperiment(
      SampledConfig(EngineKind::kHyPer, ParallelMode::kSerial), &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Buckets are contiguous from the window origin, and — with no ring
  // drops — their retired-work columns sum to the window totals.
  uint64_t instructions = 0;
  uint64_t transactions = 0;
  for (const mcsim::CoreSeries& series : run->timeseries) {
    ASSERT_FALSE(series.buckets.empty());
    EXPECT_EQ(series.dropped, 0u);
    EXPECT_DOUBLE_EQ(series.buckets.front().t0, 0.0);
    for (size_t i = 0; i < series.buckets.size(); ++i) {
      const mcsim::SeriesBucket& b = series.buckets[i];
      EXPECT_LT(b.t0, b.t1);
      if (i > 0) {
        EXPECT_DOUBLE_EQ(b.t0, series.buckets[i - 1].t1);
      }
      instructions += b.instructions;
      transactions += b.transactions;
    }
  }
  const int workers = run->num_workers;
  EXPECT_DOUBLE_EQ(static_cast<double>(instructions),
                   run->instructions * workers);
  EXPECT_DOUBLE_EQ(static_cast<double>(transactions),
                   run->transactions * workers);
}

TEST(SampledExperimentTest, RingWrapDegradesToTruncatedSeries) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  cfg.sampler.capacity = 8;  // far fewer slots than samples
  const auto run = RunExperiment(cfg, &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The tail of the window survives; the loss is visible, not silent.
  for (const mcsim::CoreSeries& series : run->timeseries) {
    EXPECT_GT(series.dropped, 0u);
    EXPECT_LE(series.buckets.size(), 9u);  // window start + ring + tail
    for (size_t i = 1; i < series.buckets.size(); ++i) {
      EXPECT_LT(series.buckets[i].t0, series.buckets[i].t1);
      EXPECT_GE(series.buckets[i].t0, series.buckets[i - 1].t1);
    }
  }
}

TEST(SampledExperimentTest, ConvergenceVerdictFollowsTolerance) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  const auto run = RunExperiment(cfg, &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const mcsim::ConvergenceCheck& c = run->convergence;
  ASSERT_TRUE(c.checked);
  EXPECT_DOUBLE_EQ(c.tolerance, cfg.convergence_rtol);
  EXPECT_GT(c.first_half_ipc, 0.0);
  EXPECT_GT(c.second_half_ipc, 0.0);
  EXPECT_GE(c.divergence, 0.0);
  EXPECT_EQ(c.converged, c.divergence <= c.tolerance);
}

TEST(SampledExperimentTest, UnsampledRunSkipsConvergenceCheck) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  cfg.sampler.every_cycles = 0;
  const auto run = RunExperiment(cfg, &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->convergence.checked);
  EXPECT_TRUE(run->convergence.converged);  // never fails a silent check
}

// ------------------------------------------- module x txn matrix

TEST(TxnMatrixTest, MicroWorkloadHasOneFullyAttributedRow) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  const auto run = RunExperiment(cfg, &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_EQ(run->txn_module_matrix.size(), 1u);
  const mcsim::TxnTypeShare& row = run->txn_module_matrix[0];
  EXPECT_EQ(row.txn_type, wl.name());
  EXPECT_EQ(row.count, cfg.measure_txns *
                           static_cast<uint64_t>(cfg.num_workers));
  EXPECT_DOUBLE_EQ(row.fraction, 1.0);
  EXPECT_GT(row.cycles, 0.0);
  ASSERT_FALSE(row.modules.empty());
  double module_sum = 0.0;
  for (const mcsim::ModuleShare& share : row.modules) {
    module_sum += share.fraction;
  }
  EXPECT_NEAR(module_sum, 1.0, 1e-9);
}

TEST(TxnMatrixTest, TpccMatrixCoversTheMix) {
  core::TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.orders_per_district = 40;
  tcfg.num_partitions = 2;
  core::TpccBenchmark wl(tcfg);

  ExperimentConfig cfg =
      SampledConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  cfg.measure_txns = 400;  // enough for the 4% mix classes to appear
  const auto run = RunExperiment(cfg, &wl);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Every row is one of the five procedures; together they account for
  // every measured transaction and all of the matrix's cycles.
  const std::set<std::string> kProcedures = {
      "new_order", "payment", "order_status", "delivery", "stock_level"};
  uint64_t count_sum = 0;
  double fraction_sum = 0.0;
  for (const mcsim::TxnTypeShare& row : run->txn_module_matrix) {
    EXPECT_EQ(kProcedures.count(row.txn_type), 1u) << row.txn_type;
    EXPECT_GT(row.count, 0u);
    count_sum += row.count;
    fraction_sum += row.fraction;
  }
  EXPECT_EQ(run->txn_module_matrix.size(), kProcedures.size());
  EXPECT_EQ(count_sum, cfg.measure_txns *
                           static_cast<uint64_t>(cfg.num_workers));
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);

  // The dominant mix classes dominate the matrix too.
  uint64_t new_order = 0, stock_level = 0;
  for (const mcsim::TxnTypeShare& row : run->txn_module_matrix) {
    if (row.txn_type == "new_order") new_order = row.count;
    if (row.txn_type == "stock_level") stock_level = row.count;
  }
  EXPECT_GT(new_order, stock_level);
}

TEST(TxnMatrixTest, WorkloadDefaultsToSingleTypeVocabulary) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  EXPECT_EQ(wl.NumTransactionTypes(), 1);
  EXPECT_STREQ(wl.TransactionTypeName(0), wl.name());
  EXPECT_EQ(wl.LastTransactionType(0), 0);

  core::TpccConfig tcfg;
  core::TpccBenchmark tpcc(tcfg);
  EXPECT_EQ(tpcc.NumTransactionTypes(), 5);
  EXPECT_STREQ(tpcc.TransactionTypeName(0), "new_order");
  EXPECT_STREQ(tpcc.TransactionTypeName(4), "stock_level");
}

}  // namespace
}  // namespace imoltp
