// Parallel experiment execution: the determinism contract of
// ParallelMode (docs/parallel_execution.md) and the accounting
// invariants of free-running mode.
//
// kSerial, the default, runs every worker on the calling thread in one
// fixed interleaving, so two same-seed runs execute the identical
// transaction stream. Across machine instances the only residue is
// physical placement (real allocations land at different addresses per
// run, which perturbs cache-set and page mappings — see
// ExperimentTest.ReproducibleAcrossRuns). Retired work is therefore
// compared bit-identically and memory-system metrics within the same
// tolerance the repo uses for any cross-run comparison.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/microbench.h"

namespace imoltp::core {
namespace {

using engine::EngineKind;

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

ExperimentConfig ParallelConfig(EngineKind kind, ParallelMode mode) {
  ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.num_workers = 4;
  cfg.warmup_txns = 100;
  cfg.measure_txns = 300;
  cfg.seed = 11;
  cfg.parallel_mode = mode;
  return cfg;
}

MicroConfig SmallMicro() {
  MicroConfig mcfg;
  mcfg.nominal_bytes = 4ULL << 20;
  mcfg.num_partitions = 4;
  return mcfg;
}

TEST(ParallelModeTest, DefaultIsSerialAndOnlyTwoModesParse) {
  EXPECT_EQ(ExperimentConfig{}.parallel_mode, ParallelMode::kSerial);
  ParallelMode parsed = ParallelMode::kFree;
  ASSERT_TRUE(ParseParallelMode("serial", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kSerial);
  ASSERT_TRUE(ParseParallelMode("free", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kFree);
  // The former "deterministic" spelling is an unknown name, not an
  // alias, and leaves the output untouched.
  EXPECT_FALSE(ParseParallelMode("deterministic", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kFree);
  EXPECT_STREQ(ParallelModeChoices(), "serial free");
}

TEST(ParallelModeTest, SerialRepeatsOnAllEngines) {
  for (EngineKind kind : kAllEngines) {
    SCOPED_TRACE(engine::EngineKindName(kind));
    MicroConfig mcfg = SmallMicro();
    MicroBenchmark wl_a(mcfg), wl_b(mcfg);

    auto a = RunExperiment(ParallelConfig(kind, ParallelMode::kSerial),
                           &wl_a);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = RunExperiment(ParallelConfig(kind, ParallelMode::kSerial),
                           &wl_b);
    ASSERT_TRUE(b.ok()) << b.status().ToString();

    // Retired work is placement-independent: bit-identical or the
    // serial interleaving is not reproducible.
    EXPECT_EQ(b->num_workers, a->num_workers);
    EXPECT_DOUBLE_EQ(b->instructions, a->instructions);
    EXPECT_DOUBLE_EQ(b->transactions, a->transactions);
    EXPECT_DOUBLE_EQ(b->mispredictions, a->mispredictions);
    EXPECT_DOUBLE_EQ(b->base_cycles, a->base_cycles);
    EXPECT_DOUBLE_EQ(b->instructions_per_txn, a->instructions_per_txn);

    // Memory-system metrics carry only address-placement noise, never
    // interleaving noise: the cross-run tolerance must hold.
    EXPECT_NEAR(b->ipc, a->ipc, 0.02 * a->ipc);
    EXPECT_NEAR(b->cycles, a->cycles, 0.02 * a->cycles);
  }
}

TEST(ParallelModeTest, SerialDistributesWorkAcrossCores) {
  MicroConfig mcfg = SmallMicro();
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg =
      ParallelConfig(EngineKind::kVoltDb, ParallelMode::kSerial);
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ASSERT_TRUE((*runner)->Run(&wl).ok());

  // Every simulated core ran exactly its per-worker share, all on the
  // calling thread: no per-worker host threads are reported.
  mcsim::MachineSim* machine = (*runner)->machine();
  ASSERT_EQ(machine->num_cores(), 4);
  for (int c = 0; c < machine->num_cores(); ++c) {
    EXPECT_EQ(machine->core(c).counters().transactions,
              cfg.warmup_txns + cfg.measure_txns)
        << "core " << c;
  }
  EXPECT_EQ((*runner)->latency_histogram().count(),
            cfg.measure_txns * static_cast<uint64_t>(cfg.num_workers));
  EXPECT_EQ((*runner)->host_perf().parallel_mode, "serial");
  EXPECT_TRUE((*runner)->host_perf().workers.empty());
}

TEST(ParallelModeTest, SingleWorkerIgnoresMode) {
  // One worker has nothing to parallelize: all modes take the serial
  // path and must agree bit-for-bit on retired work.
  MicroConfig mcfg;
  mcfg.nominal_bytes = 1ULL << 20;
  MicroBenchmark wl1(mcfg), wl2(mcfg);
  ExperimentConfig cfg =
      ParallelConfig(EngineKind::kHyPer, ParallelMode::kFree);
  cfg.num_workers = 1;
  const auto free_run = RunExperiment(cfg, &wl1);
  ASSERT_TRUE(free_run.ok());
  cfg.parallel_mode = ParallelMode::kSerial;
  const auto serial = RunExperiment(cfg, &wl2);
  ASSERT_TRUE(serial.ok());
  EXPECT_DOUBLE_EQ(free_run->instructions, serial->instructions);
  EXPECT_DOUBLE_EQ(free_run->transactions, serial->transactions);
}

// Free-running mode gives up the deterministic interleaving but not the
// accounting: every transaction issued must land somewhere. These also
// serve as the TSan stress targets (scripts/tsan.sh).
class FreeModeStressTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FreeModeStressTest, ConservesTransactionAccounting) {
  const EngineKind kind = GetParam();
  MicroConfig mcfg = SmallMicro();
  mcfg.read_write = true;  // exercise locks / version chains
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg = ParallelConfig(kind, ParallelMode::kFree);
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  const auto report = (*runner)->Run(&wl);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const uint64_t workers = static_cast<uint64_t>(cfg.num_workers);
  // One latency sample per measured transaction, commit or abort.
  EXPECT_EQ((*runner)->latency_histogram().count(),
            cfg.measure_txns * workers);
  // Every issued transaction retired on some core.
  EXPECT_EQ((*runner)->machine()->TotalCounters().transactions,
            (cfg.warmup_txns + cfg.measure_txns) * workers);
  // Aborts were counted, not lost: commits + aborts == issued.
  EXPECT_LE((*runner)->aborts(),
            (cfg.warmup_txns + cfg.measure_txns) * workers);
  EXPECT_DOUBLE_EQ(report->transactions,
                   static_cast<double>(cfg.measure_txns));
  EXPECT_GT(report->ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, FreeModeStressTest,
    ::testing::Values(EngineKind::kShoreMt, EngineKind::kDbmsD,
                      EngineKind::kVoltDb, EngineKind::kHyPer,
                      EngineKind::kDbmsM),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kShoreMt: return "ShoreMt";
        case EngineKind::kDbmsD: return "DbmsD";
        case EngineKind::kVoltDb: return "VoltDb";
        case EngineKind::kHyPer: return "HyPer";
        case EngineKind::kDbmsM: return "DbmsM";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace imoltp::core
