#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "mcsim/machine.h"

namespace imoltp::core {
namespace {

using engine::EngineKind;

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

std::unique_ptr<engine::Engine> MakeEngine(EngineKind kind,
                                           mcsim::MachineSim* m,
                                           Workload* workload,
                                           bool ordered_index = false) {
  engine::EngineOptions opts;
  if (ordered_index) opts.dbms_m_index = index::IndexKind::kBTreeCc;
  auto engine = engine::CreateEngine(kind, m, opts);
  EXPECT_TRUE(engine->CreateDatabase(workload->Tables()).ok());
  return engine;
}

// ---------------------------------------------------------------------------
// Micro-benchmark
// ---------------------------------------------------------------------------

TEST(MicroBenchmarkTest, RowCountScalesWithNominalSize) {
  MicroConfig small;
  small.nominal_bytes = 1 << 20;
  MicroConfig big;
  big.nominal_bytes = 10 << 20;
  EXPECT_NEAR(static_cast<double>(MicroBenchmark(big).num_rows()) /
                  MicroBenchmark(small).num_rows(),
              10.0, 0.1);
}

TEST(MicroBenchmarkTest, RowCountIsCappedForHugeSizes) {
  MicroConfig cfg;
  cfg.nominal_bytes = 100ULL << 30;
  cfg.max_resident_rows = 123456;
  EXPECT_EQ(MicroBenchmark(cfg).num_rows(), 123456u);
}

class MicroOnEveryEngineTest
    : public ::testing::TestWithParam<EngineKind> {};

TEST_P(MicroOnEveryEngineTest, ReadOnlyTransactionsSucceed) {
  MicroConfig cfg;
  cfg.nominal_bytes = 1 << 20;
  cfg.rows_per_txn = 4;
  MicroBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Status s = wl.RunTransaction(engine.get(), 0, &rng);
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
  }
  EXPECT_EQ(m.core(0).counters().transactions, 200u);
}

TEST_P(MicroOnEveryEngineTest, ReadWriteTransactionsSucceed) {
  MicroConfig cfg;
  cfg.nominal_bytes = 1 << 20;
  cfg.read_write = true;
  MicroBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &rng).ok()) << i;
  }
}

TEST_P(MicroOnEveryEngineTest, StringVariantSucceeds) {
  MicroConfig cfg;
  cfg.nominal_bytes = 1 << 20;
  cfg.string_columns = true;
  cfg.read_write = true;
  MicroBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &rng).ok()) << i;
  }
}

// The partitioned engines route a transaction by its partition key.
// 26214 rows do not split evenly over 4 workers; every worker's routing
// key must still land on its own partition, or the engine aborts each
// of its transactions as routed to the wrong partition.
TEST_P(MicroOnEveryEngineTest, EveryWorkerCommitsWhenWorkersDoNotDivideRows) {
  MicroConfig mcfg;
  mcfg.nominal_bytes = 1 << 20;
  mcfg.num_partitions = 4;
  MicroBenchmark wl(mcfg);
  ASSERT_NE(wl.num_rows() % 4, 0u);
  ExperimentConfig cfg;
  cfg.engine = GetParam();
  cfg.num_workers = 4;
  cfg.warmup_txns = 20;
  cfg.measure_txns = 100;
  auto runner = ExperimentRunner::Create(cfg, &wl);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ASSERT_TRUE((*runner)->Run(&wl).ok());
  EXPECT_EQ((*runner)->aborts(), 0u);
  EXPECT_EQ((*runner)->committed(), 400u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MicroOnEveryEngineTest,
                         ::testing::ValuesIn(kAllEngines),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           std::string n = engine::EngineKindName(i.param);
                           for (char& c : n) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// TPC-B
// ---------------------------------------------------------------------------

TEST(TpcbTest, KeepsSpecCardinalityRatios) {
  TpcbConfig cfg;
  cfg.nominal_bytes = 1ULL << 30;
  TpcbBenchmark wl(cfg);
  EXPECT_EQ(wl.num_accounts() % wl.num_branches(), 0u);
  EXPECT_GE(wl.num_accounts() / wl.num_branches(), 1000u);
}

class TpcbOnEveryEngineTest : public ::testing::TestWithParam<EngineKind> {
};

TEST_P(TpcbOnEveryEngineTest, AccountUpdateTransactionsSucceed) {
  TpcbConfig cfg;
  cfg.nominal_bytes = 64 << 20;
  TpcbBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Status s = wl.RunTransaction(engine.get(), 0, &rng);
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
  }
}

TEST_P(TpcbOnEveryEngineTest, MoneyIsConserved) {
  // Every AccountUpdate adds the same delta to one branch, one teller,
  // and one account: after any run, sum(branch balances) must equal
  // sum(teller balances) and sum(account deltas).
  TpcbConfig cfg;
  cfg.nominal_bytes = 16 << 20;
  TpcbBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &rng).ok());
  }

  const storage::Schema schema({storage::ColumnType::kLong,
                                storage::ColumnType::kLong,
                                storage::ColumnType::kString});
  int64_t branch_total = 0;
  int64_t teller_total = 0;
  engine::TxnRequest req;
  req.key_space = wl.num_branches();
  const Status s = engine->Execute(0, req, [&](engine::TxnContext& ctx) {
    uint8_t row[128];
    for (uint64_t b = 0; b < wl.num_branches(); ++b) {
      storage::RowId rid;
      Status st =
          ctx.Probe(TpcbBenchmark::kTableBranch,
                    index::Key::FromUint64(b), &rid);
      if (!st.ok()) return st;
      st = ctx.Read(TpcbBenchmark::kTableBranch, rid, row);
      if (!st.ok()) return st;
      branch_total += schema.GetLong(row, 1);
      // Initial balances are generated pseudo-randomly; subtract them.
      uint8_t initial[128];
      storage::DefaultRowGenerator(schema, b, 11, initial);
      branch_total -= schema.GetLong(initial, 1);
    }
    for (uint64_t t = 0; t < wl.num_branches() *
                                 TpcbBenchmark::kTellersPerBranch;
         ++t) {
      storage::RowId rid;
      Status st = ctx.Probe(TpcbBenchmark::kTableTeller,
                            index::Key::FromUint64(t), &rid);
      if (!st.ok()) return st;
      st = ctx.Read(TpcbBenchmark::kTableTeller, rid, row);
      if (!st.ok()) return st;
      teller_total += schema.GetLong(row, 1);
      uint8_t initial[128];
      storage::DefaultRowGenerator(schema, t, 12, initial);
      teller_total -= schema.GetLong(initial, 1);
    }
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(branch_total, teller_total);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, TpcbOnEveryEngineTest,
                         ::testing::ValuesIn(kAllEngines),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           std::string n = engine::EngineKindName(i.param);
                           for (char& c : n) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// TPC-C
// ---------------------------------------------------------------------------

TEST(TpccTest, CompositeKeysAreOrderedByWarehouse) {
  EXPECT_LT(TpccBenchmark::OrderKey(1, 9, 5000),
            TpccBenchmark::OrderKey(2, 0, 0));
  EXPECT_LT(TpccBenchmark::OrderLineKey(1, 2, 3, 4),
            TpccBenchmark::OrderLineKey(1, 2, 4, 0));
  EXPECT_LT(TpccBenchmark::StockKey(3, 99999),
            TpccBenchmark::StockKey(4, 0));
}

class TpccOnEveryEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  static TpccConfig SmallConfig() {
    TpccConfig cfg;
    cfg.warehouses = 2;
    cfg.orders_per_district = 90;
    return cfg;
  }
};

TEST_P(TpccOnEveryEngineTest, FullMixRuns) {
  TpccConfig cfg = SmallConfig();
  TpccBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl, /*ordered_index=*/true);
  Rng rng(6);
  int failures = 0;
  for (int i = 0; i < 400; ++i) {
    if (!wl.RunTransaction(engine.get(), 0, &rng).ok()) ++failures;
  }
  EXPECT_EQ(failures, 0);
  const auto& mix = wl.mix_counts();
  EXPECT_GT(mix.new_order, 100u);
  EXPECT_GT(mix.payment, 100u);
  EXPECT_GT(mix.order_status, 0u);
  EXPECT_GT(mix.delivery, 0u);
  EXPECT_GT(mix.stock_level, 0u);
}

TEST_P(TpccOnEveryEngineTest, WarehouseYtdEqualsSumOfDistrictYtd) {
  // TPC-C consistency condition 1/2 (clause 3.3.2): after any number of
  // Payment transactions, W_YTD == sum(D_YTD) for every warehouse.
  TpccConfig cfg = SmallConfig();
  TpccBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl, /*ordered_index=*/true);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &rng).ok()) << i;
  }

  engine::TxnRequest req;
  req.key_space = cfg.warehouses;
  const Status s = engine->Execute(0, req, [&](engine::TxnContext& ctx) {
    uint8_t row[160];
    for (uint64_t w = 0; w < static_cast<uint64_t>(cfg.warehouses); ++w) {
      storage::RowId rid;
      Status st = ctx.Probe(TpccBenchmark::kWarehouse,
                            index::Key::FromUint64(w), &rid);
      if (!st.ok()) return st;
      st = ctx.Read(TpccBenchmark::kWarehouse, rid, row);
      if (!st.ok()) return st;
      const storage::Schema wsch({storage::ColumnType::kLong,
                                  storage::ColumnType::kLong,
                                  storage::ColumnType::kString});
      const int64_t w_ytd = wsch.GetLong(row, 1);

      int64_t d_ytd_sum = 0;
      const storage::Schema dsch(
          {storage::ColumnType::kLong, storage::ColumnType::kLong,
           storage::ColumnType::kLong, storage::ColumnType::kString});
      for (uint64_t d = 0; d < TpccBenchmark::kDistrictsPerWarehouse;
           ++d) {
        st = ctx.Probe(
            TpccBenchmark::kDistrict,
            index::Key::FromUint64(TpccBenchmark::DistrictKey(w, d)),
            &rid);
        if (!st.ok()) return st;
        st = ctx.Read(TpccBenchmark::kDistrict, rid, row);
        if (!st.ok()) return st;
        d_ytd_sum += dsch.GetLong(row, 1);
      }
      EXPECT_EQ(w_ytd, d_ytd_sum) << "warehouse " << w;
    }
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
}

TEST_P(TpccOnEveryEngineTest, NewOrderAdvancesDistrictCounter) {
  TpccConfig cfg = SmallConfig();
  TpccBenchmark wl(cfg);
  mcsim::MachineSim m(NoTlb());
  auto engine = MakeEngine(GetParam(), &m, &wl, /*ordered_index=*/true);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &rng).ok());
  }
  // Sum of (next_o_id - initial) across districts == New-Order count.
  engine::TxnRequest req;
  req.key_space = cfg.warehouses;
  int64_t advanced = 0;
  const Status s = engine->Execute(0, req, [&](engine::TxnContext& ctx) {
    uint8_t row[160];
    const storage::Schema dsch(
        {storage::ColumnType::kLong, storage::ColumnType::kLong,
         storage::ColumnType::kLong, storage::ColumnType::kString});
    for (uint64_t w = 0; w < static_cast<uint64_t>(cfg.warehouses); ++w) {
      for (uint64_t d = 0; d < TpccBenchmark::kDistrictsPerWarehouse;
           ++d) {
        storage::RowId rid;
        Status st = ctx.Probe(
            TpccBenchmark::kDistrict,
            index::Key::FromUint64(TpccBenchmark::DistrictKey(w, d)),
            &rid);
        if (!st.ok()) return st;
        st = ctx.Read(TpccBenchmark::kDistrict, rid, row);
        if (!st.ok()) return st;
        advanced += dsch.GetLong(row, 2) - cfg.orders_per_district;
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(advanced,
            static_cast<int64_t>(wl.mix_counts().new_order));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, TpccOnEveryEngineTest,
                         ::testing::ValuesIn(kAllEngines),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           std::string n = engine::EngineKindName(i.param);
                           for (char& c : n) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace imoltp::core
