#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cstring>

#include "mcsim/machine.h"
#include "storage/disk_heap_file.h"

namespace imoltp::engine {
namespace {

mcsim::MachineConfig NoTlb(int cores = 1) {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  c.num_cores = cores;
  return c;
}

TableDef SimpleTable(uint64_t rows) {
  return {.name = "t",
          .schema = storage::TwoLongColumns(),
          .initial_rows = rows,
          .seed = 3,
          .needs_ordered_index = true,
          .secondaries = {}};
}

constexpr EngineKind kAllEngines[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kVoltDb,
    EngineKind::kHyPer, EngineKind::kDbmsM};

class EngineConformanceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineConformanceTest()
      : machine_(NoTlb()),
        engine_(CreateEngine(GetParam(), &machine_, EngineOptions())) {
    EXPECT_TRUE(engine_->CreateDatabase({SimpleTable(5000)}).ok());
  }

  Status Run(const std::function<Status(TxnContext&)>& body,
             uint64_t partition_key = 0) {
    TxnRequest req;
    req.type = 1;
    req.partition_key = partition_key;
    req.key_space = 5000;
    return engine_->Execute(0, req, body);
  }

  mcsim::MachineSim machine_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(EngineConformanceTest, NameMatchesKind) {
  EXPECT_EQ(engine_->kind(), GetParam());
  EXPECT_STRNE(engine_->name(), "?");
}

TEST_P(EngineConformanceTest, ProbeAndReadInitialRow) {
  Status s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(1234), &rid);
    if (!st.ok()) return st;
    uint8_t row[16];
    st = ctx.Read(0, rid, row);
    if (!st.ok()) return st;
    const storage::Schema schema = storage::TwoLongColumns();
    EXPECT_EQ(schema.GetLong(row, 0), 1234);
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(EngineConformanceTest, ProbeMissingKeyReturnsNotFound) {
  Status s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    return ctx.Probe(0, index::Key::FromUint64(999999), &rid);
  });
  EXPECT_TRUE(s.IsNotFound());
}

TEST_P(EngineConformanceTest, UpdateIsVisibleToLaterTransaction) {
  const int64_t new_value = 4242;
  Status s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(77), &rid);
    if (!st.ok()) return st;
    return ctx.Update(0, rid, 1, &new_value);
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(77), &rid);
    if (!st.ok()) return st;
    uint8_t row[16];
    st = ctx.Read(0, rid, row);
    if (!st.ok()) return st;
    EXPECT_EQ(storage::TwoLongColumns().GetLong(row, 1), 4242);
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(EngineConformanceTest, InsertThenProbeFindsRow) {
  Status s = Run([&](TxnContext& ctx) {
    uint8_t row[16];
    const storage::Schema schema = storage::TwoLongColumns();
    schema.SetLong(row, 0, 100000);
    schema.SetLong(row, 1, 1);
    return ctx.Insert(0, row, index::Key::FromUint64(100000));
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(100000), &rid);
    if (!st.ok()) return st;
    uint8_t row[16];
    return ctx.Read(0, rid, row);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(EngineConformanceTest, DeleteRemovesRowAndKey) {
  Status s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(55), &rid);
    if (!st.ok()) return st;
    return ctx.Delete(0, rid, index::Key::FromUint64(55));
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    return ctx.Probe(0, index::Key::FromUint64(55), &rid);
  });
  EXPECT_TRUE(s.IsNotFound());
}

TEST_P(EngineConformanceTest, OrderedScanReturnsConsecutiveKeys) {
  Status s = Run([&](TxnContext& ctx) {
    std::vector<storage::RowId> rows;
    Status st = ctx.Scan(0, index::Key::FromUint64(100), 10, &rows);
    if (!st.ok()) return st;
    EXPECT_EQ(rows.size(), 10u);
    uint8_t row[16];
    const storage::Schema schema = storage::TwoLongColumns();
    for (size_t i = 0; i < rows.size(); ++i) {
      st = ctx.Read(0, rows[i], row);
      if (!st.ok()) return st;
      EXPECT_EQ(schema.GetLong(row, 0), static_cast<int64_t>(100 + i));
    }
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(EngineConformanceTest, TransactionsAndInstructionsAreCounted) {
  const auto& counters = machine_.core(0).counters();
  const uint64_t txns_before = counters.transactions;
  const uint64_t instr_before = counters.instructions;
  ASSERT_TRUE(Run([](TxnContext&) { return Status::Ok(); }).ok());
  EXPECT_EQ(counters.transactions, txns_before + 1);
  EXPECT_GT(counters.instructions, instr_before);
}

TEST_P(EngineConformanceTest, RegistersEngineSideModules) {
  const mcsim::ModuleRegistry& modules = machine_.modules();
  bool engine_side = false;
  for (int i = 0; i < modules.size(); ++i) {
    if (modules.info(i).inside_engine) engine_side = true;
  }
  EXPECT_TRUE(engine_side);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConformanceTest,
                         ::testing::ValuesIn(kAllEngines),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           std::string n = EngineKindName(i.param);
                           for (char& c : n) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Engine-specific behavior
// ---------------------------------------------------------------------------

TEST(DiskEngineTest, UsesBufferPoolFrames) {
  mcsim::MachineSim m(NoTlb());
  EngineOptions opts;
  auto engine = CreateEngine(EngineKind::kShoreMt, &m, opts);
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(10000)}).ok());
  // 10000 rows of 16B rows in 8KB slotted pages: dozens of pages exist.
  // (Smoke check through a transaction touching one of them.)
  TxnRequest req;
  Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(9999), &rid);
    if (!st.ok()) return st;
    EXPECT_GT(storage::DiskHeapFile::PageNo(rid), 10u);
    uint8_t row[16];
    return ctx.Read(0, rid, row);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(PartitionedEngineTest, RoutesByPartitionKey) {
  mcsim::MachineSim m(NoTlb(2));
  EngineOptions opts;
  opts.num_partitions = 2;
  auto engine = CreateEngine(EngineKind::kHyPer, &m, opts);
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(5000)}).ok());

  // Worker 0 probing a key from partition 1's range must be rejected
  // (the request is routed to the wrong site).
  TxnRequest req;
  req.partition_key = 4000;  // partition 1
  req.key_space = 5000;
  Status s = engine->Execute(0, req,
                             [](TxnContext&) { return Status::Ok(); });
  EXPECT_TRUE(s.IsAborted());

  // Worker 1 executing the same request succeeds and finds the key.
  s = engine->Execute(1, req, [&](TxnContext& ctx) {
    storage::RowId rid;
    return ctx.Probe(0, index::Key::FromUint64(4000), &rid);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(PartitionedEngineTest, ReplicatedTableExistsOnEveryPartition) {
  mcsim::MachineSim m(NoTlb(2));
  EngineOptions opts;
  opts.num_partitions = 2;
  auto engine = CreateEngine(EngineKind::kVoltDb, &m, opts);
  TableDef replicated = SimpleTable(1000);
  replicated.replicated = true;
  ASSERT_TRUE(engine->CreateDatabase({replicated}).ok());
  for (int worker = 0; worker < 2; ++worker) {
    TxnRequest req;
    req.partition_key = worker == 0 ? 0 : 999;
    req.key_space = 1000;
    Status s = engine->Execute(worker, req, [&](TxnContext& ctx) {
      storage::RowId rid;
      return ctx.Probe(0, index::Key::FromUint64(999), &rid);
    });
    EXPECT_TRUE(s.ok()) << "worker " << worker << ": " << s.ToString();
  }
}

TEST(MvccEngineTest, CompilationtogglesStorageCodePath) {
  // With compilation the per-operation instruction count drops (the
  // Figure 13 mechanism); verify the toggle changes retired instructions.
  uint64_t instr[2];
  for (int compiled = 0; compiled < 2; ++compiled) {
    mcsim::MachineSim m(NoTlb());
    EngineOptions opts;
    opts.compilation = compiled == 1;
    auto engine = CreateEngine(EngineKind::kDbmsM, &m, opts);
    ASSERT_TRUE(engine->CreateDatabase({SimpleTable(2000)}).ok());
    const uint64_t before = m.core(0).counters().instructions;
    TxnRequest req;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine
                      ->Execute(0, req,
                                [&](TxnContext& ctx) {
                                  storage::RowId rid;
                                  Status st = ctx.Probe(
                                      0, index::Key::FromUint64(i), &rid);
                                  if (!st.ok()) return st;
                                  uint8_t row[16];
                                  return ctx.Read(0, rid, row);
                                })
                      .ok());
    }
    instr[compiled] = m.core(0).counters().instructions - before;
  }
  EXPECT_LT(instr[1], instr[0]);
}

TEST(MvccEngineTest, DbmsMIndexOptionSelectsStructure) {
  // Hash for point workloads, cache-conscious B-tree when scans are
  // needed: the ordered-index requirement must override the hash choice.
  mcsim::MachineSim m(NoTlb());
  EngineOptions opts;
  opts.dbms_m_index = index::IndexKind::kHash;
  auto engine = CreateEngine(EngineKind::kDbmsM, &m, opts);
  TableDef def = SimpleTable(1000);
  def.needs_ordered_index = true;
  ASSERT_TRUE(engine->CreateDatabase({def}).ok());
  TxnRequest req;
  Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
    std::vector<storage::RowId> rows;
    Status st = ctx.Scan(0, index::Key::FromUint64(0), 5, &rows);
    EXPECT_EQ(rows.size(), 5u);
    return st;
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(VoltDbTest, MultiSiteModeRaisesInstructionFootprint) {
  uint64_t instr[2];
  for (int single_site = 0; single_site < 2; ++single_site) {
    mcsim::MachineSim m(NoTlb());
    EngineOptions opts;
    opts.single_site = single_site == 1;
    auto engine = CreateEngine(EngineKind::kVoltDb, &m, opts);
    ASSERT_TRUE(engine->CreateDatabase({SimpleTable(2000)}).ok());
    const uint64_t before = m.core(0).counters().instructions;
    TxnRequest req;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine
                      ->Execute(0, req,
                                [](TxnContext&) { return Status::Ok(); })
                      .ok());
    }
    instr[single_site] = m.core(0).counters().instructions - before;
  }
  EXPECT_GT(instr[0], instr[1]);  // multi-site path costs more
}

}  // namespace
}  // namespace imoltp::engine
