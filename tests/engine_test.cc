#include "engine/engine.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/experiment.h"
#include "core/tpcc.h"
#include "fault/fault_injector.h"
#include "fault/fingerprint.h"
#include "mcsim/machine.h"
#include "storage/disk_heap_file.h"

namespace imoltp::engine {
namespace {

/// A log record field's bytes, for comparisons.
std::vector<uint8_t> Bytes(std::span<const uint8_t> field) {
  return {field.begin(), field.end()};
}

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

std::string EngineTestName(const ::testing::TestParamInfo<EngineKind>& i) {
  std::string n = EngineKindName(i.param);
  for (char& c : n) {
    if (c == '-' || c == ' ') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConformanceTest,
                         ::testing::ValuesIn(kAllEngines), EngineTestName);

// ---------------------------------------------------------------------------
// LSNs come from the engine, not the process
// ---------------------------------------------------------------------------

/// The LSNs of a fresh engine's stable log after a seeded stream of
/// single-row updates.
std::vector<uint64_t> SeededRunLsns(EngineKind kind) {
  mcsim::MachineSim machine(NoTlb());
  auto engine = CreateEngine(kind, &machine, EngineOptions());
  EXPECT_TRUE(engine->CreateDatabase({SimpleTable(1000)}).ok());
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    const uint64_t key = rng.Uniform(1000);
    const int64_t value = static_cast<int64_t>(rng.Next());
    TxnRequest req;
    req.type = 1;
    req.partition_key = key;
    req.key_space = 1000;
    const Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
      storage::RowId rid;
      const Status st = ctx.Probe(0, index::Key::FromUint64(key), &rid);
      return st.ok() ? ctx.Update(0, rid, 1, &value) : st;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  std::vector<uint64_t> lsns;
  for (const txn::LogRecord& rec : engine->StableLog()) {
    lsns.push_back(rec.lsn);
  }
  return lsns;
}

class EngineLsnTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineLsnTest, EnginesBuiltInTurnLogEqualLsns) {
  const std::vector<uint64_t> first = SeededRunLsns(GetParam());
  const std::vector<uint64_t> second = SeededRunLsns(GetParam());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front(), 1u);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineLsnTest,
                         ::testing::ValuesIn(kAllEngines), EngineTestName);

// ---------------------------------------------------------------------------
// A failed Insert leaves no row behind
// ---------------------------------------------------------------------------

// Insert appends the row before the primary index (or, on the disk
// engines, the row lock) can refuse it. The refused row must not stay
// live: it was never logged, so a recovered database would not have it.
// The table starts empty, so the appends land at predictable RowIds.
class FailedInsertFixture {
 public:
  explicit FailedInsertFixture(EngineKind kind)
      : machine_(NoTlb()), fault_(1) {
    EngineOptions opts;
    opts.fault_injector = &fault_;
    engine_ = CreateEngine(kind, &machine_, opts);
    EXPECT_TRUE(engine_->CreateDatabase({SimpleTable(0)}).ok());
  }

  Status RunTxn(const std::function<Status(TxnContext&)>& body) {
    TxnRequest req;
    req.type = 1;
    return engine_->Execute(0, req, body);
  }

  Status Insert(int64_t id, storage::RowId* rid = nullptr) {
    return RunTxn([&](TxnContext& ctx) {
      uint8_t row[16];
      const storage::Schema schema = storage::TwoLongColumns();
      schema.SetLong(row, 0, id);
      schema.SetLong(row, 1, id * 10);
      return ctx.Insert(0, row, index::Key::FromUint64(id), rid);
    });
  }

  Status ReadRid(storage::RowId rid, int64_t* id = nullptr) {
    return RunTxn([&](TxnContext& ctx) {
      uint8_t row[16];
      const Status st = ctx.Read(0, rid, row);
      if (st.ok() && id != nullptr) {
        *id = storage::TwoLongColumns().GetLong(row, 0);
      }
      return st;
    });
  }

  mcsim::MachineSim machine_;
  fault::FaultInjector fault_;
  std::unique_ptr<Engine> engine_;
};

class FailedInsertTest : public ::testing::TestWithParam<EngineKind>,
                         protected FailedInsertFixture {
 protected:
  FailedInsertTest() : FailedInsertFixture(GetParam()) {}
};

TEST_P(FailedInsertTest, DuplicateKeyLeavesNoLiveRow) {
  storage::RowId first = storage::kInvalidRow;
  ASSERT_TRUE(Insert(7, &first).ok());
  const Status dup = Insert(7);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists) << dup.ToString();

  // The refused duplicate was appended right after the first row.
  EXPECT_TRUE(ReadRid(first + 1).IsNotFound());
  // The existing row and its index entry are untouched.
  int64_t id = 0;
  ASSERT_TRUE(ReadRid(first, &id).ok());
  EXPECT_EQ(id, 7);
  const Status probe = RunTxn([&](TxnContext& ctx) {
    storage::RowId rid = storage::kInvalidRow;
    const Status st = ctx.Probe(0, index::Key::FromUint64(7), &rid);
    EXPECT_EQ(rid, first);
    return st;
  });
  EXPECT_TRUE(probe.ok()) << probe.ToString();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, FailedInsertTest,
                         ::testing::ValuesIn(kAllEngines), EngineTestName);

// ---------------------------------------------------------------------------
// Rollback from the worker's undo log
// ---------------------------------------------------------------------------

// Undo images live in a per-worker arena that is reused across
// transactions. With checkpointing on, every undo action also logs a
// compensation record built from those images.
class UndoLogTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  UndoLogTest() : machine_(NoTlb()) {
    EngineOptions opts;
    opts.checkpoint.enabled = true;
    opts.checkpoint.every_n_ticks = 1u << 30;
    engine_ = CreateEngine(GetParam(), &machine_, opts);
    EXPECT_TRUE(engine_->CreateDatabase({SimpleTable(100)}).ok());
  }

  Status RunTxn(const std::function<Status(TxnContext&)>& body) {
    TxnRequest req;
    req.type = 1;
    return engine_->Execute(0, req, body);
  }

  /// The row stored under `id`, or an empty vector when it is absent.
  std::vector<uint8_t> RowOf(int64_t id) {
    std::vector<uint8_t> row(16);
    const Status s = RunTxn([&](TxnContext& ctx) {
      storage::RowId rid;
      const Status st = ctx.Probe(0, index::Key::FromUint64(id), &rid);
      return st.ok() ? ctx.Read(0, rid, row.data()) : st;
    });
    if (!s.ok()) row.clear();
    return row;
  }

  static Status Update(TxnContext& ctx, int64_t id, int64_t value) {
    storage::RowId rid;
    const Status s = ctx.Probe(0, index::Key::FromUint64(id), &rid);
    return s.ok() ? ctx.Update(0, rid, 1, &value) : s;
  }
  static Status Insert(TxnContext& ctx, int64_t id) {
    uint8_t row[16];
    storage::TwoLongColumns().SetLong(row, 0, id);
    storage::TwoLongColumns().SetLong(row, 1, -id);
    return ctx.Insert(0, row, index::Key::FromUint64(id));
  }
  static Status Delete(TxnContext& ctx, int64_t id) {
    storage::RowId rid;
    const Status s = ctx.Probe(0, index::Key::FromUint64(id), &rid);
    return s.ok() ? ctx.Delete(0, rid, index::Key::FromUint64(id)) : s;
  }

  std::vector<txn::LogRecord> Clrs() {
    std::vector<txn::LogRecord> clrs;
    for (txn::LogRecord& rec : engine_->StableLog()) {
      if (rec.clr) clrs.push_back(std::move(rec));
    }
    return clrs;
  }

  mcsim::MachineSim machine_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(UndoLogTest, AbortRestoresUpdateInsertAndDelete) {
  const std::vector<uint8_t> updated = RowOf(10);
  const std::vector<uint8_t> deleted = RowOf(20);
  ASSERT_EQ(updated.size(), 16u);
  ASSERT_EQ(deleted.size(), 16u);
  const Status s = RunTxn([](TxnContext& ctx) {
    Status st = Update(ctx, 10, 4242);
    if (st.ok()) st = Insert(ctx, 500);
    if (st.ok()) st = Delete(ctx, 20);
    return st.ok() ? Status::Aborted("test rollback") : st;
  });
  ASSERT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(RowOf(10), updated);
  EXPECT_EQ(RowOf(20), deleted);
  EXPECT_TRUE(RowOf(500).empty());

  const std::vector<txn::LogRecord> clrs = Clrs();
  if (GetParam() == EngineKind::kVoltDb) {  // command log: no CLRs
    EXPECT_TRUE(clrs.empty());
    return;
  }
  // Undo runs newest first: re-insert the deleted row, delete the
  // inserted one, then (in-place engines) restore the updated column.
  const bool in_place_update = GetParam() != EngineKind::kDbmsM;
  ASSERT_EQ(clrs.size(), in_place_update ? 3u : 2u);
  EXPECT_EQ(clrs[0].op, txn::LogOp::kInsert);
  EXPECT_EQ(Bytes(clrs[0].payload()), deleted);
  EXPECT_EQ(clrs[1].op, txn::LogOp::kDelete);
  EXPECT_EQ(clrs[1].key().size(), 8u);
  EXPECT_EQ(storage::TwoLongColumns().GetLong(clrs[1].before().data(), 0),
            500);
  if (in_place_update) {
    EXPECT_EQ(clrs[2].op, txn::LogOp::kUpdate);
    EXPECT_EQ(clrs[2].column, 1);
    EXPECT_EQ(Bytes(clrs[2].payload()),
              std::vector<uint8_t>(updated.begin() + 8, updated.end()));
  }
}

TEST_P(UndoLogTest, NextTransactionStartsWithAnEmptyUndoLog) {
  // A committed transaction leaves its entries in the worker's undo
  // log; if the next transaction on that worker inherited them, its
  // rollback would also revert the committed writes.
  ASSERT_TRUE(RunTxn([](TxnContext& ctx) {
                Status st = Update(ctx, 30, 777);
                return st.ok() ? Insert(ctx, 600) : st;
              }).ok());
  const std::vector<uint8_t> committed = RowOf(30);
  const std::vector<uint8_t> untouched = RowOf(40);
  const size_t clrs_before = Clrs().size();
  const Status s = RunTxn([](TxnContext& ctx) {
    const Status st = Update(ctx, 40, 888);
    return st.ok() ? Status::Aborted("test rollback") : st;
  });
  ASSERT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(RowOf(30), committed);
  EXPECT_EQ(storage::TwoLongColumns().GetLong(committed.data(), 1), 777);
  EXPECT_EQ(RowOf(40), untouched);
  EXPECT_FALSE(RowOf(600).empty());
  const size_t want = GetParam() == EngineKind::kVoltDb ||
                              GetParam() == EngineKind::kDbmsM
                          ? 0u
                          : 1u;
  EXPECT_EQ(Clrs().size() - clrs_before, want);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, UndoLogTest,
                         ::testing::ValuesIn(kAllEngines), EngineTestName);

TEST(DiskEngineTest, RefusedInsertLockLeavesNoLiveRow) {
  for (EngineKind kind : {EngineKind::kShoreMt, EngineKind::kDbmsD}) {
    SCOPED_TRACE(EngineKindName(kind));
    FailedInsertFixture t(kind);
    // The insert's lock is the first lock the engine takes.
    t.fault_.Arm(fault::kLockConflict, {.probability = 0.0, .nth_hit = 1});
    EXPECT_TRUE(t.Insert(7).IsAborted());
    EXPECT_TRUE(t.ReadRid(0).IsNotFound());
    EXPECT_TRUE(t.Insert(7).ok());
  }
}

// ---------------------------------------------------------------------------
// Pinned simulated signature per engine
// ---------------------------------------------------------------------------

// TPC-C with rollbacks. Every 16th transaction of a worker is a
// New-Order whose last line names an unused item (the spec's 1%
// rollback): it advances the district, inserts the order, the
// new-order entry and four lines and updates stock before the item
// probe fails. Every 16th, offset by 8, deletes a pending new-order
// entry and then fails, so a deleted row is resurrected.
class RollbackTpcc final : public core::Workload {
 public:
  explicit RollbackTpcc(const core::TpccConfig& config)
      : config_(config),
        tpcc_(config),
        new_order_schema_(
            tpcc_.Tables()[core::TpccBenchmark::kNewOrder].schema),
        calls_(config.num_partitions) {}

  const char* name() const override { return "tpcc-rollback"; }
  std::vector<TableDef> Tables() const override { return tpcc_.Tables(); }
  int NumTransactionTypes() const override {
    return tpcc_.NumTransactionTypes();
  }
  const char* TransactionTypeName(int type) const override {
    return tpcc_.TransactionTypeName(type);
  }
  int LastTransactionType(int worker) const override {
    return tpcc_.LastTransactionType(worker);
  }

  Status RunTransaction(Engine* engine, int worker, Rng* rng) override {
    using core::TpccBenchmark;
    const uint64_t call = calls_[worker]++;
    const uint64_t w = static_cast<uint64_t>(config_.warehouses) *
                       static_cast<uint64_t>(worker) /
                       static_cast<uint64_t>(config_.num_partitions);
    if (call % 16 == 15) {
      TpccBenchmark::NewOrderParams p;
      p.d = rng->Uniform(TpccBenchmark::kDistrictsPerWarehouse);
      p.c = rng->Uniform(TpccBenchmark::kCustomersPerDistrict);
      p.ol_cnt = 5;
      for (int i = 0; i < p.ol_cnt; ++i) {
        p.items[i] = rng->Uniform(TpccBenchmark::kItems);
        p.quantities[i] = 1 + rng->Uniform(10);
      }
      p.items[p.ol_cnt - 1] = TpccBenchmark::kItems;  // unused item
      return tpcc_.ExecuteNewOrderHome(engine, worker, w, p);
    }
    if (call % 16 == 7) {
      const uint64_t d = rng->Uniform(TpccBenchmark::kDistrictsPerWarehouse);
      TxnRequest req;
      req.type = TpccBenchmark::kTxnDelivery;
      req.partition_key = w;
      req.key_space = static_cast<uint64_t>(config_.warehouses);
      req.statements = 8;
      return engine->Execute(worker, req, [&](TxnContext& ctx) {
        const uint64_t from = TpccBenchmark::OrderKey(w, d, 0);
        std::vector<storage::RowId> rows;
        Status st = ctx.Scan(TpccBenchmark::kNewOrder,
                             index::Key::FromUint64(from), 1, &rows);
        if (!st.ok() || rows.empty()) return Status::Aborted("no rows");
        uint8_t row[16];
        st = ctx.Read(TpccBenchmark::kNewOrder, rows[0], row);
        if (!st.ok()) return st;
        const uint64_t key =
            static_cast<uint64_t>(new_order_schema_.GetLong(row, 0));
        st = ctx.Delete(TpccBenchmark::kNewOrder, rows[0],
                        index::Key::FromUint64(key));
        if (!st.ok()) return st;
        return Status::Aborted("delivery rolled back");
      });
    }
    return tpcc_.RunTransaction(engine, worker, rng);
  }

 private:
  core::TpccConfig config_;
  core::TpccBenchmark tpcc_;
  storage::Schema new_order_schema_;
  std::vector<uint64_t> calls_;
};

// Everything of a run that does not depend on host addresses.
struct Signature {
  uint64_t instructions = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  std::array<uint64_t, obs::kNumSpanKinds> spans{};
  uint64_t log_fnv = 0;
  std::vector<std::pair<std::string, uint64_t>> module_instructions;

  bool operator==(const Signature&) const = default;
};

// The signature as a C++ initializer, to paste into kPinned.
std::string ToCpp(const Signature& sig) {
  std::ostringstream os;
  os << "{" << sig.instructions << "ull, " << sig.committed << ", "
     << sig.aborted << ", {";
  for (size_t i = 0; i < sig.spans.size(); ++i) {
    os << (i ? ", " : "") << sig.spans[i];
  }
  os << "}, 0x" << std::hex << sig.log_fnv << std::dec << "ull, {";
  for (size_t i = 0; i < sig.module_instructions.size(); ++i) {
    os << (i ? ", " : "") << "{\"" << sig.module_instructions[i].first
       << "\", " << sig.module_instructions[i].second << "ull}";
  }
  os << "}}";
  return os.str();
}

// Each engine's ablation switch, as the ablation and figure benches set
// it: the buffer-pool-less heap (disk engines), the multi-partition
// coordination path (partitioned engines), interpreted storage code
// (DBMS M).
void Ablate(EngineKind kind, EngineOptions* options) {
  switch (kind) {
    case EngineKind::kShoreMt:
    case EngineKind::kDbmsD:
      options->use_bufferpool = false;
      break;
    case EngineKind::kVoltDb:
    case EngineKind::kHyPer:
      options->single_site = false;
      break;
    case EngineKind::kDbmsM:
      options->compilation = false;
      break;
  }
}

// The pinned stream on `kind`, run to its end: seeded serial TPC-C
// with rollbacks and checkpointing on. Null if the engine failed to
// start.
std::unique_ptr<core::ExperimentRunner> RunRollbackTpcc(EngineKind kind,
                                                        bool ablated) {
  core::TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.orders_per_district = 30;
  tcfg.num_partitions = 2;
  RollbackTpcc workload(tcfg);

  core::ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.num_workers = 2;
  cfg.warmup_txns = 20;
  cfg.measure_txns = 200;
  cfg.seed = 17;
  cfg.parallel_mode = core::ParallelMode::kSerial;
  // Checkpointing on, so the log carries before-images and
  // compensation records; no checkpoint begins within the run, so no
  // truncation shortens the pinned log.
  cfg.engine_options.checkpoint.enabled = true;
  cfg.engine_options.checkpoint.every_n_ticks = 1u << 30;
  if (ablated) Ablate(kind, &cfg.engine_options);
  auto runner = core::ExperimentRunner::Create(cfg, &workload);
  EXPECT_TRUE(runner.ok()) << runner.status().ToString();
  if (!runner.ok()) return nullptr;
  EXPECT_TRUE((*runner)->Run(&workload).ok());
  return std::move(*runner);
}

Signature RunSignature(EngineKind kind, bool ablated) {
  const std::unique_ptr<core::ExperimentRunner> runner =
      RunRollbackTpcc(kind, ablated);
  if (runner == nullptr) return {};

  Signature sig;
  mcsim::MachineSim* machine = runner->machine();
  const mcsim::ModuleRegistry& modules = machine->modules();
  for (int m = 0; m < modules.size(); ++m) {
    uint64_t n = 0;
    for (int c = 0; c < machine->num_cores(); ++c) {
      n += machine->core(c).counters().per_module[m].instructions;
    }
    if (n != 0) sig.module_instructions.emplace_back(modules.info(m).name, n);
  }
  for (int c = 0; c < machine->num_cores(); ++c) {
    sig.instructions += machine->core(c).counters().instructions;
  }
  sig.committed = runner->committed();
  sig.aborted = runner->aborts();
  for (int k = 0; k < obs::kNumSpanKinds; ++k) {
    sig.spans[k] = runner->spans().stats(static_cast<obs::SpanKind>(k)).count;
  }
  const std::vector<txn::LogRecord> log = runner->engine()->StableLog();
  sig.log_fnv = fault::FnvLog(fault::kFnvOffset, log);

  // The run covers what the pinned signature claims to cover.
  uint64_t clrs = 0, deletes = 0, before_images = 0;
  for (const txn::LogRecord& rec : log) {
    clrs += rec.clr ? 1 : 0;
    deletes += rec.op == txn::LogOp::kDelete && !rec.clr ? 1 : 0;
    before_images += rec.before().empty() ? 0 : 1;
  }
  EXPECT_GT(sig.aborted, 0u);
  if (kind != EngineKind::kVoltDb) {  // command log: no physical records
    EXPECT_GT(clrs, 0u);
    EXPECT_GT(deletes, 0u);
    EXPECT_GT(before_images, 0u);
  }
  return sig;
}

class PinnedSignatureTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void ExpectPinned(const std::pair<EngineKind, Signature> (&pinned)[5],
                    bool ablated) {
    const Signature got = RunSignature(GetParam(), ablated);
    const Signature* want = nullptr;
    for (const auto& [kind, sig] : pinned) {
      if (kind == GetParam()) want = &sig;
    }
    ASSERT_NE(want, nullptr) << "observed: " << ToCpp(got);
    EXPECT_EQ(got, *want) << "observed: " << ToCpp(got);
  }
};

// The engines' data-operation paths are shared plumbing: any change to
// them must leave every simulated event where it was. These signatures
// pin a seeded serial TPC-C run with checkpointing on (before-images
// and compensation records are logged) that covers New-Order and
// deletion rollbacks, Delivery deletes, by-name secondary scans and
// Stock-Level scans.
TEST_P(PinnedSignatureTest, SerialTpccSignatureIsPinned) {
  static const std::pair<EngineKind, Signature> kPinned[] = {
      {EngineKind::kShoreMt,
       {305065174ull, 350, 50, {11131, 20711, 7302, 20477},
        0x4848dbbeb699d5f3ull,
        {{"<none>", 79608400ull}, {"sm-xct-begin", 2288000ull},
         {"sm-xct-commit", 2464000ull}, {"sm-btree", 63503876ull},
         {"sm-bufferpool", 91132790ull}, {"sm-lock", 52895071ull},
         {"sm-log", 13173037ull}}}},
      {EngineKind::kDbmsD,
       {324984917ull, 350, 50, {11131, 20711, 7302, 20477},
        0x4848dbbeb699d5f3ull,
        {{"<none>", 79608400ull}, {"network", 3469200ull},
         {"parser", 3344000ull}, {"optimizer", 3080000ull},
         {"plan-exec", 40072400ull}, {"sm-xct-begin", 1584000ull},
         {"sm-xct-commit", 1672000ull}, {"sm-btree", 54101476ull},
         {"sm-bufferpool", 78119390ull}, {"sm-lock", 48387414ull},
         {"sm-log", 11546637ull}}}},
      {EngineKind::kVoltDb,
       {167994784ull, 350, 50, {11074, 400, 316, 20477},
        0x607ccb0130169b6ull,
        {{"<none>", 104608920ull}, {"dispatch", 4048000ull},
         {"exec-engine", 44698624ull}, {"ee-index", 13664440ull},
         {"ee-commit", 694800ull}, {"cmd-log", 280000ull}}}},
      {EngineKind::kHyPer,
       {38773743ull, 350, 50, {11074, 400, 7302, 20477},
        0x31e280dc6445195eull,
        {{"<none>", 23370414ull}, {"dispatch", 132000ull},
         {"txn-commit", 77200ull}, {"redo-log", 1391040ull},
         {"compiled-txn#20", 7689731ull},
         {"compiled-txn#21", 1735890ull},
         {"compiled-txn#22", 117076ull},
         {"compiled-txn#23", 875098ull},
         {"compiled-txn#24", 3385294ull}}}},
      {EngineKind::kDbmsM,
       {66740774ull, 350, 50, {11074, 0, 7252, 20427},
        0xbee1b4d655f6a0baull,
        {{"<none>", 9547378ull}, {"legacy-session", 1848000ull},
         {"legacy-query", 2200000ull}, {"legacy-txn", 1325280ull},
         {"mvcc", 21801567ull}, {"compiled-op", 16059160ull},
         {"mm-index", 6763013ull}, {"mvcc-commit", 1137876ull},
         {"mm-log", 6058500ull}}}},
  };
  ExpectPinned(kPinned, /*ablated=*/false);
}

// The same run with each engine's ablation switch flipped (see Ablate):
// the code paths the ablation benches measure.
TEST_P(PinnedSignatureTest, AblationTpccSignatureIsPinned) {
  static const std::pair<EngineKind, Signature> kPinned[] = {
      {EngineKind::kShoreMt,
       {253011694ull, 350, 50, {11131, 20711, 7302, 20477},
        0xbbd43fd3e181de15ull,
        {{"<none>", 79608400ull}, {"sm-xct-begin", 2288000ull},
         {"sm-xct-commit", 2464000ull}, {"sm-btree", 63503876ull},
         {"sm-lock", 52895191ull}, {"sm-log", 13173037ull},
         {"sm-heap-direct", 39079190ull}}}},
      {EngineKind::kDbmsD,
       {286114694ull, 350, 50, {11131, 20711, 7302, 20477},
        0xbbd43fd3e181de15ull,
        {{"<none>", 79608400ull}, {"network", 3469200ull},
         {"parser", 3344000ull}, {"optimizer", 3080000ull},
         {"plan-exec", 40072400ull}, {"sm-xct-begin", 1584000ull},
         {"sm-xct-commit", 1672000ull}, {"sm-btree", 54101476ull},
         {"sm-lock", 48557391ull}, {"sm-log", 11546637ull},
         {"sm-heap-direct", 39079190ull}}}},
      {EngineKind::kVoltDb,
       {169360544ull, 350, 50, {11074, 400, 316, 20477},
        0x607ccb0130169b6ull,
        {{"<none>", 104610680ull}, {"dispatch", 4048000ull},
         {"exec-engine", 44698624ull}, {"ee-index", 13664440ull},
         {"ee-commit", 694800ull}, {"cmd-log", 280000ull},
         {"dtxn-coord", 1364000ull}}}},
      {EngineKind::kHyPer,
       {38775503ull, 350, 50, {11074, 400, 7302, 20477},
        0x31e280dc6445195eull,
        {{"<none>", 23372174ull}, {"dispatch", 132000ull},
         {"txn-commit", 77200ull}, {"redo-log", 1391040ull},
         {"compiled-txn#20", 7689731ull},
         {"compiled-txn#21", 1735890ull},
         {"compiled-txn#22", 117076ull},
         {"compiled-txn#23", 875098ull},
         {"compiled-txn#24", 3385294ull}}}},
      {EngineKind::kDbmsM,
       {149507214ull, 350, 50, {11074, 0, 7252, 20427},
        0xbee1b4d655f6a0baull,
        {{"<none>", 9547378ull}, {"legacy-session", 1848000ull},
         {"legacy-query", 2200000ull}, {"legacy-txn", 1325280ull},
         {"mvcc", 21801567ull}, {"interp-op", 98825600ull},
         {"mm-index", 6763013ull}, {"mvcc-commit", 1137876ull},
         {"mm-log", 6058500ull}}}},
  };
  ExpectPinned(kPinned, /*ablated=*/true);
}

// The cluster fingerprint digests each live log where it lies. On the
// pinned stream, whose logs hold CLRs and before-images, that digest
// must equal the digest of the copied log.
TEST_P(PinnedSignatureTest, InPlaceLogDigestEqualsDigestOfCopiedLog) {
  const std::unique_ptr<core::ExperimentRunner> runner =
      RunRollbackTpcc(GetParam(), /*ablated=*/false);
  ASSERT_NE(runner, nullptr);
  const Engine& engine = *runner->engine();
  const std::vector<txn::LogRecord> log = engine.StableLog();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(engine.StableLogSize(), log.size());
  std::vector<uint64_t> visited;
  engine.VisitStableLog(
      [&visited](const txn::LogRecord& rec) { visited.push_back(rec.lsn); });
  ASSERT_EQ(visited.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(visited[i], log[i].lsn) << "record " << i;
  }
  EXPECT_EQ(fault::FnvStableLog(fault::kFnvOffset, engine),
            fault::FnvLog(fault::kFnvOffset, log));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, PinnedSignatureTest,
                         ::testing::ValuesIn(kAllEngines), EngineTestName);

// ---------------------------------------------------------------------------
// The three crash points of the transaction lifecycle
// ---------------------------------------------------------------------------

struct CrashCase {
  EngineKind kind;
  const char* point;
};

// Test names and listings print the case, not the point's address.
void PrintTo(const CrashCase& c, std::ostream* os) {
  *os << EngineKindName(c.kind) << " " << c.point;
}

std::string CrashCaseName(const ::testing::TestParamInfo<CrashCase>& i) {
  std::string n = std::string(EngineKindName(i.param.kind)) + "_" +
                  (std::strchr(i.param.point, '.') + 1);
  for (char& c : n) {
    if (c == '-' || c == ' ') c = '_';
  }
  return n;
}

std::vector<CrashCase> AllCrashCases() {
  std::vector<CrashCase> cases;
  for (EngineKind kind : kAllEngines) {
    for (const char* point : {fault::kCrashPreBody, fault::kCrashMidCommit,
                              fault::kCrashPostCommit}) {
      cases.push_back({kind, point});
    }
  }
  return cases;
}

class CrashPointTest : public ::testing::TestWithParam<CrashCase> {};

// Arms one crash point at the third transaction of a run of row updates
// and checks what the crashed transaction left in the stable log: at
// pre_body nothing, at mid_commit its data records but no commit (or
// command) record, at post_commit its commit (or command) record.
TEST_P(CrashPointTest, LogShowsWhereTheTransactionCrashed) {
  const auto [kind, point] = GetParam();
  constexpr uint64_t kCrashingTxn = 3;
  fault::FaultInjector injector(/*seed=*/5);
  injector.Arm(point, {0.0, kCrashingTxn});
  mcsim::MachineSim machine(NoTlb());
  EngineOptions options;
  options.fault_injector = &injector;
  auto engine = CreateEngine(kind, &machine, options);
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(5000)}).ok());

  size_t logged_before = 0;
  Status last;
  for (uint64_t t = 1; t <= kCrashingTxn; ++t) {
    logged_before = engine->StableLog().size();
    TxnRequest req;
    req.type = 1;
    req.key_space = 5000;
    last = engine->Execute(0, req, [&](TxnContext& ctx) {
      storage::RowId rid;
      Status st = ctx.Probe(0, index::Key::FromUint64(100 + t), &rid);
      if (!st.ok()) return st;
      const int64_t value = 7000 + static_cast<int64_t>(t);
      return ctx.Update(0, rid, 1, &value);
    });
    if (t < kCrashingTxn) {
      ASSERT_TRUE(last.ok()) << last.ToString();
      EXPECT_FALSE(injector.crash_pending());
    }
  }
  EXPECT_TRUE(last.IsAborted()) << last.ToString();
  EXPECT_TRUE(injector.crash_pending());
  EXPECT_EQ(injector.crash_point(), point);

  const std::vector<txn::LogRecord> log = engine->StableLog();
  ASSERT_GE(log.size(), logged_before);
  uint64_t data = 0, commits = 0;
  for (size_t i = logged_before; i < log.size(); ++i) {
    const txn::LogOp op = log[i].op;
    commits += op == txn::LogOp::kCommit || op == txn::LogOp::kCommand;
    data += op == txn::LogOp::kUpdate;
  }
  // VoltDB's command log holds no data records.
  const bool physical = kind != EngineKind::kVoltDb;
  if (point == std::string(fault::kCrashPreBody)) {
    EXPECT_EQ(log.size(), logged_before);
  } else if (point == std::string(fault::kCrashMidCommit)) {
    EXPECT_EQ(commits, 0u);
    EXPECT_EQ(data > 0, physical);
  } else {
    EXPECT_EQ(commits, 1u);
    EXPECT_EQ(data > 0, physical);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CrashPointTest,
                         ::testing::ValuesIn(AllCrashCases()),
                         CrashCaseName);

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

// Worker 1 commits a write to a row that worker 0 read, inside worker
// 0's body: worker 0's commit-time validation fails. The engine returns
// the abort, rolls back the in-place insert and logs an abort record.
TEST(MvccEngineTest, ValidationFailureRollsBackAndLogsAbort) {
  mcsim::MachineSim m(NoTlb(/*cores=*/2));
  auto engine = CreateEngine(EngineKind::kDbmsM, &m, EngineOptions());
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(1000)}).ok());
  const storage::Schema schema = storage::TwoLongColumns();
  const index::Key contested = index::Key::FromUint64(42);
  const index::Key inserted = index::Key::FromUint64(5000);
  auto write_contested = [&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, contested, &rid);
    if (!st.ok()) return st;
    const int64_t value = -1;
    return ctx.Update(0, rid, 1, &value);
  };

  TxnRequest req;
  Status inner;
  const Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, contested, &rid);
    if (!st.ok()) return st;
    uint8_t row[16];
    st = ctx.Read(0, rid, row);
    if (!st.ok()) return st;
    schema.SetLong(row, 0, 5000);
    st = ctx.Insert(0, row, inserted);
    if (!st.ok()) return st;
    inner = engine->Execute(1, req, write_contested);
    return Status::Ok();
  });
  ASSERT_TRUE(inner.ok()) << inner.ToString();
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(s.message(), "validation failure");

  const Status probe = engine->Execute(0, req, [&](TxnContext& ctx) {
    storage::RowId rid;
    return ctx.Probe(0, inserted, &rid);
  });
  EXPECT_TRUE(probe.IsNotFound()) << probe.ToString();

  // The failed transaction is the one that logged the insert: it has an
  // abort record and no commit record.
  const std::vector<txn::LogRecord> log = engine->StableLog();
  uint64_t loser = 0;
  for (const txn::LogRecord& rec : log) {
    if (rec.op == txn::LogOp::kInsert && !rec.clr) loser = rec.txn_id;
  }
  ASSERT_NE(loser, 0u);
  uint64_t aborts = 0, commits = 0;
  for (const txn::LogRecord& rec : log) {
    if (rec.txn_id != loser) continue;
    aborts += rec.op == txn::LogOp::kAbort;
    commits += rec.op == txn::LogOp::kCommit;
  }
  EXPECT_EQ(aborts, 1u);
  EXPECT_EQ(commits, 0u);
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

TEST(VoltDbTest, CommandRecordIgnoresRequestPadding) {
  // Two requests with equal fields whose padding bytes differ (the
  // placement-new default-initializes the fields and leaves the
  // padding as the buffer held it) must log equal command records.
  mcsim::MachineSim m(NoTlb());
  auto engine = CreateEngine(EngineKind::kVoltDb, &m, EngineOptions());
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(100)}).ok());
  for (const uint8_t fill : {uint8_t{0xAA}, uint8_t{0x55}}) {
    alignas(TxnRequest) uint8_t buf[sizeof(TxnRequest)];
    std::memset(buf, fill, sizeof(buf));
    TxnRequest* req = new (buf) TxnRequest;
    req->type = 3;
    req->partition_key = 5;
    req->key_space = 100;
    req->statements = 2;
    const int64_t value = 9;
    const Status s = engine->Execute(0, *req, [&](TxnContext& ctx) {
      storage::RowId rid;
      const Status st = ctx.Probe(0, index::Key::FromUint64(5), &rid);
      if (!st.ok()) return st;
      return ctx.Update(0, rid, 1, &value);
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    req->~TxnRequest();
  }
  std::vector<std::vector<uint8_t>> payloads;
  for (const txn::LogRecord& rec : engine->StableLog()) {
    if (rec.op == txn::LogOp::kCommand) {
      payloads.push_back(Bytes(rec.payload()));
    }
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0].size(), sizeof(TxnRequest));
  EXPECT_EQ(payloads[0], payloads[1]);
}

}  // namespace
}  // namespace imoltp::engine
