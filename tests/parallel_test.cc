// Worker interleaving: the determinism contract of ParallelMode
// (docs/parallel_execution.md), the accounting invariants of
// kInterleaved, and the contention only kInterleaved reaches.
//
// Both modes run every worker on the calling thread in an order fixed
// by the seed, so two same-seed runs execute the identical transaction
// stream. Across machine instances the only residue is physical
// placement (real allocations land at different addresses per run,
// which perturbs cache-set and page mappings — see
// ExperimentTest.ReproducibleAcrossRuns). Retired work is therefore
// compared bit-identically and memory-system metrics within the same
// tolerance the repo uses for any cross-run comparison.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/microbench.h"
#include "storage/schema.h"

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
  ParallelMode parsed = ParallelMode::kSerial;
  ASSERT_TRUE(ParseParallelMode("interleaved", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kInterleaved);
  ASSERT_TRUE(ParseParallelMode("serial", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kSerial);
  // Retired spellings are unknown names, not aliases, and leave the
  // output untouched.
  EXPECT_FALSE(ParseParallelMode("deterministic", &parsed));
  EXPECT_FALSE(ParseParallelMode("free", &parsed));
  EXPECT_EQ(parsed, ParallelMode::kSerial);
  EXPECT_STREQ(ParallelModeChoices(), "serial interleaved");
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

  // Every simulated core ran exactly its per-worker share.
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
}

TEST(ParallelModeTest, SingleWorkerIgnoresMode) {
  // One worker has nothing to interleave: both modes take the serial
  // path and must agree bit-for-bit on retired work.
  MicroConfig mcfg;
  mcfg.nominal_bytes = 1ULL << 20;
  MicroBenchmark wl1(mcfg), wl2(mcfg);
  ExperimentConfig cfg =
      ParallelConfig(EngineKind::kHyPer, ParallelMode::kInterleaved);
  cfg.num_workers = 1;
  const auto interleaved = RunExperiment(cfg, &wl1);
  ASSERT_TRUE(interleaved.ok());
  cfg.parallel_mode = ParallelMode::kSerial;
  const auto serial = RunExperiment(cfg, &wl2);
  ASSERT_TRUE(serial.ok());
  EXPECT_DOUBLE_EQ(interleaved->instructions, serial->instructions);
  EXPECT_DOUBLE_EQ(interleaved->transactions, serial->transactions);
}

// Overlapping transactions change which ones abort, not the accounting:
// every transaction issued must land somewhere.
class InterleavedStressTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(InterleavedStressTest, ConservesTransactionAccounting) {
  const EngineKind kind = GetParam();
  MicroConfig mcfg = SmallMicro();
  mcfg.read_write = true;  // exercise locks / version chains
  MicroBenchmark wl(mcfg);
  ExperimentConfig cfg = ParallelConfig(kind, ParallelMode::kInterleaved);
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

// Every transaction of every worker reads row 0 of one table and writes
// it back incremented: one row all workers share. Each of its three
// operations is a point where kInterleaved may switch workers.
class SharedRowWorkload final : public Workload {
 public:
  const char* name() const override { return "shared-row"; }
  std::vector<engine::TableDef> Tables() const override {
    engine::TableDef t;
    t.name = "counter";
    t.schema = storage::TwoLongColumns();
    t.initial_rows = 64;
    return {t};
  }
  Status RunTransaction(engine::Engine* engine, int worker,
                        Rng* /*rng*/) override {
    return engine->Execute(worker, engine::TxnRequest{},
                           [](engine::TxnContext& ctx) {
                             int64_t v = 0;
                             storage::RowId rid;
                             Status s = ReadCounter(ctx, &rid, &v);
                             if (!s.ok()) return s;
                             ++v;
                             return ctx.Update(0, rid, 1, &v);
                           });
  }
  static Status ReadCounter(engine::TxnContext& ctx, storage::RowId* rid,
                            int64_t* value) {
    Status s = ctx.Probe(0, index::Key::FromUint64(0), rid);
    if (!s.ok()) return s;
    uint8_t row[16];
    s = ctx.Read(0, *rid, row);
    if (s.ok()) *value = storage::TwoLongColumns().GetLong(row, 1);
    return s;
  }
};

int64_t CounterValue(engine::Engine* engine) {
  int64_t value = 0;
  const Status s = engine->Execute(
      0, engine::TxnRequest{}, [&value](engine::TxnContext& ctx) {
        storage::RowId rid;
        return SharedRowWorkload::ReadCounter(ctx, &rid, &value);
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return value;
}

struct SharedRowRun {
  uint64_t committed = 0;
  uint64_t aborts = 0;
  mcsim::AbortBreakdown breakdown;
  double instructions = 0;
};

SharedRowRun RunSharedRow(EngineKind kind, ParallelMode mode) {
  SharedRowWorkload wl;
  ExperimentConfig cfg = ParallelConfig(kind, mode);
  cfg.warmup_txns = 0;
  auto runner = ExperimentRunner::Create(cfg, &wl);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  if (!runner.ok()) return {};
  engine::Engine* engine = (*runner)->engine();
  const int64_t before = CounterValue(engine);
  const auto report = (*runner)->Run(&wl);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  SharedRowRun run;
  run.committed = (*runner)->committed();
  run.aborts = (*runner)->aborts();
  run.breakdown = (*runner)->abort_breakdown();
  run.instructions = report.ok() ? report->instructions : 0;
  // Commits + aborts == issued, and no update is lost: the counter
  // moved by exactly the committed transactions.
  EXPECT_EQ(run.committed + run.aborts,
            cfg.measure_txns * static_cast<uint64_t>(cfg.num_workers));
  EXPECT_EQ(CounterValue(engine) - before,
            static_cast<int64_t>(run.committed));
  return run;
}

// Serial transactions never overlap, so the shared row never conflicts.
// Interleaved ones do: 2PL on Shore-MT refuses a lock (no-wait) and
// DBMS M's MVCC fails validation, from the runner, at the same points
// in every run.
TEST(InterleavedModeTest, SharedRowConflictsOnlyWhenInterleaved) {
  const SharedRowRun shore_serial =
      RunSharedRow(EngineKind::kShoreMt, ParallelMode::kSerial);
  EXPECT_EQ(shore_serial.aborts, 0u);
  const SharedRowRun mvcc_serial =
      RunSharedRow(EngineKind::kDbmsM, ParallelMode::kSerial);
  EXPECT_EQ(mvcc_serial.aborts, 0u);

  const SharedRowRun shore =
      RunSharedRow(EngineKind::kShoreMt, ParallelMode::kInterleaved);
  EXPECT_GT(shore.breakdown.lock_conflict, 0u);
  EXPECT_GT(shore.committed, 0u);
  const SharedRowRun mvcc =
      RunSharedRow(EngineKind::kDbmsM, ParallelMode::kInterleaved);
  EXPECT_GT(mvcc.breakdown.validation, 0u);
  EXPECT_GT(mvcc.committed, 0u);
}

TEST(InterleavedModeTest, SameSeedRepeatsExactly) {
  for (EngineKind kind : {EngineKind::kShoreMt, EngineKind::kDbmsM}) {
    SCOPED_TRACE(engine::EngineKindName(kind));
    const SharedRowRun a = RunSharedRow(kind, ParallelMode::kInterleaved);
    const SharedRowRun b = RunSharedRow(kind, ParallelMode::kInterleaved);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.breakdown.lock_conflict, b.breakdown.lock_conflict);
    EXPECT_EQ(a.breakdown.validation, b.breakdown.validation);
    EXPECT_DOUBLE_EQ(a.instructions, b.instructions);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, InterleavedStressTest,
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
