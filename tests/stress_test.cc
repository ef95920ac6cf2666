// Heavier randomized stress tests: cross-checking the substrates against
// reference models under long random operation sequences, the shared
// structures under free-running threads, and the workloads under
// multi-partition execution.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/microbench.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "index/index.h"
#include "mcsim/machine.h"
#include "storage/table.h"
#include "txn/lock_manager.h"

namespace imoltp {
namespace {

mcsim::MachineConfig NoTlb(int cores = 1) {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  c.num_cores = cores;
  return c;
}

// ---------------------------------------------------------------------------
// Lock manager vs a reference model under random traffic.
// ---------------------------------------------------------------------------

TEST(LockManagerStressTest, MatchesReferenceModel) {
  mcsim::MachineSim m(NoTlb());
  txn::LockManager lm(64);  // small table: deep chains
  Rng rng(42);

  struct RefLock {
    bool exclusive = false;
    std::vector<uint64_t> holders;
  };
  std::map<uint64_t, RefLock> ref;
  std::map<uint64_t, std::vector<uint64_t>> held_by_txn;

  auto ref_acquire = [&](uint64_t txn, uint64_t obj, bool exclusive) {
    RefLock& l = ref[obj];
    const bool holder =
        std::find(l.holders.begin(), l.holders.end(), txn) !=
        l.holders.end();
    if (holder) {
      if (exclusive && !l.exclusive) {
        if (l.holders.size() > 1) return false;
        l.exclusive = true;
      }
      return true;
    }
    if (l.holders.empty()) {
      l.exclusive = exclusive;
      l.holders.push_back(txn);
      held_by_txn[txn].push_back(obj);
      return true;
    }
    if (l.exclusive || exclusive) return false;
    l.holders.push_back(txn);
    held_by_txn[txn].push_back(obj);
    return true;
  };

  for (int step = 0; step < 20000; ++step) {
    const uint64_t txn = 1 + rng.Uniform(6);
    if (rng.Uniform(10) < 8) {
      const uint64_t obj = rng.Uniform(300);
      const bool exclusive = rng.Uniform(2) == 0;
      const bool want = ref_acquire(txn, obj, exclusive);
      const Status got =
          lm.Acquire(&m.core(0), txn, obj,
                     exclusive ? txn::LockMode::kExclusive
                               : txn::LockMode::kShared);
      ASSERT_EQ(got.ok(), want)
          << "step " << step << " txn " << txn << " obj " << obj
          << (exclusive ? " X" : " S");
    } else {
      lm.ReleaseAll(&m.core(0), txn);
      for (uint64_t obj : held_by_txn[txn]) {
        RefLock& l = ref[obj];
        l.holders.erase(
            std::remove(l.holders.begin(), l.holders.end(), txn),
            l.holders.end());
        if (l.holders.empty()) ref.erase(obj);
      }
      held_by_txn[txn].clear();
    }
  }
}

// ---------------------------------------------------------------------------
// Ordered indexes: leaf chains and scans stay consistent across heavy
// mixed traffic with many splits and deletions.
// ---------------------------------------------------------------------------

class OrderedIndexStressTest
    : public ::testing::TestWithParam<index::IndexKind> {};

TEST_P(OrderedIndexStressTest, FullScanAlwaysSortedAndComplete) {
  mcsim::MachineSim m(NoTlb());
  auto idx = index::CreateIndex(GetParam(), 8);
  Rng rng(7);
  std::map<uint64_t, uint64_t> oracle;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const uint64_t k = rng.Uniform(1u << 20);
      if (rng.Uniform(3) != 0) {
        if (idx->Insert(&m.core(0), index::Key::FromUint64(k), k * 3)
                .ok()) {
          oracle[k] = k * 3;
        }
      } else {
        const bool removed =
            idx->Remove(&m.core(0), index::Key::FromUint64(k));
        ASSERT_EQ(removed, oracle.erase(k) > 0);
      }
    }
    std::vector<uint64_t> got;
    idx->Scan(&m.core(0), index::Key::FromUint64(0), oracle.size() + 10,
              &got);
    ASSERT_EQ(got.size(), oracle.size()) << "round " << round;
    size_t i = 0;
    for (const auto& [k, v] : oracle) {
      ASSERT_EQ(got[i++], v) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ordered, OrderedIndexStressTest,
    ::testing::Values(index::IndexKind::kBTree8K,
                      index::IndexKind::kBTreeCacheline,
                      index::IndexKind::kBTreeCc, index::IndexKind::kArt),
    [](const ::testing::TestParamInfo<index::IndexKind>& info) {
      std::string n = index::IndexKindName(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Multi-partition workloads: every engine keeps executing correctly
// with 2 workers over 2 partitions.
// ---------------------------------------------------------------------------

class MultiPartitionWorkloadTest
    : public ::testing::TestWithParam<engine::EngineKind> {};

TEST_P(MultiPartitionWorkloadTest, MicroRunsOnBothWorkers) {
  core::MicroConfig mcfg;
  mcfg.nominal_bytes = 2 << 20;
  mcfg.read_write = true;
  mcfg.num_partitions = 2;
  core::MicroBenchmark wl(mcfg);
  mcsim::MachineSim m(NoTlb(2));
  engine::EngineOptions opts;
  opts.num_partitions = 2;
  auto engine = engine::CreateEngine(GetParam(), &m, opts);
  ASSERT_TRUE(engine->CreateDatabase(wl.Tables()).ok());
  Rng r0(1), r1(2);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &r0).ok()) << i;
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 1, &r1).ok()) << i;
  }
  EXPECT_EQ(m.core(0).counters().transactions, 150u);
  EXPECT_EQ(m.core(1).counters().transactions, 150u);
}

TEST_P(MultiPartitionWorkloadTest, TpccRunsOnBothWorkers) {
  core::TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.orders_per_district = 90;
  tcfg.num_partitions = 2;
  core::TpccBenchmark wl(tcfg);
  mcsim::MachineSim m(NoTlb(2));
  engine::EngineOptions opts;
  opts.num_partitions = 2;
  opts.dbms_m_index = index::IndexKind::kBTreeCc;
  auto engine = engine::CreateEngine(GetParam(), &m, opts);
  ASSERT_TRUE(engine->CreateDatabase(wl.Tables()).ok());
  Rng r0(3), r1(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &r0).ok()) << i;
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 1, &r1).ok()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, MultiPartitionWorkloadTest,
    ::testing::Values(engine::EngineKind::kShoreMt,
                      engine::EngineKind::kDbmsD,
                      engine::EngineKind::kVoltDb,
                      engine::EngineKind::kHyPer,
                      engine::EngineKind::kDbmsM),
    [](const ::testing::TestParamInfo<engine::EngineKind>& i) {
      std::string n = engine::EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// TPC-B under two workers preserves money conservation per partition.
// ---------------------------------------------------------------------------

TEST(TpcbMultiWorkerTest, RunsCleanlyPartitioned) {
  core::TpcbConfig tcfg;
  tcfg.nominal_bytes = 8 << 20;
  tcfg.num_partitions = 2;
  core::TpcbBenchmark wl(tcfg);
  mcsim::MachineSim m(NoTlb(2));
  engine::EngineOptions opts;
  opts.num_partitions = 2;
  auto engine =
      engine::CreateEngine(engine::EngineKind::kVoltDb, &m, opts);
  ASSERT_TRUE(engine->CreateDatabase(wl.Tables()).ok());
  Rng r0(5), r1(6);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 0, &r0).ok());
    ASSERT_TRUE(wl.RunTransaction(engine.get(), 1, &r1).ok());
  }
}

// ---------------------------------------------------------------------------
// Shared structures under free-running execution: two host threads, each
// driving its own core, work one shared B-tree, ART, heap table and lock
// manager at once. The structures take their host locks only while the
// machine free-runs, so this is the case that exercises them (and the
// case the thread-sanitized run, scripts/tsan.sh, checks for races).
// ---------------------------------------------------------------------------

TEST(FreeRunningStressTest, SharedStructuresMatchOracle) {
  constexpr int kThreads = 2;
  constexpr uint64_t kKeys = 3000;
  constexpr uint64_t kRows = 2000;
  constexpr uint64_t kAppends = 500;
  constexpr uint64_t kSharedObject = 7;
  mcsim::MachineSim m(NoTlb(kThreads));
  auto btree = index::CreateIndex(index::IndexKind::kBTreeCacheline, 8);
  auto art = index::CreateIndex(index::IndexKind::kArt, 8);
  auto table = storage::CreateTable("t", storage::TwoLongColumns(), kRows,
                                    storage::TableOptions());
  txn::LockManager lm(64);
  // Simulation off: the LLC's mutex would otherwise order the threads
  // often enough to hide a missing structure lock from the thread
  // sanitizer. The host locks follow free_running(), not enabled().
  m.SetEnabled(false);

  for (int c = 0; c < kThreads; ++c) EXPECT_FALSE(m.core(c).free_running());
  m.SetFreeRunning(true);
  for (int c = 0; c < kThreads; ++c) EXPECT_TRUE(m.core(c).free_running());

  std::atomic<int> failures{0};
  std::vector<std::vector<storage::RowId>> appended(kThreads);
  auto work = [&](int t) {
    mcsim::CoreSim* core = &m.core(t);
    auto check = [&failures](bool ok) {
      if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
    };
    // Disjoint keys per thread: k = 2i + t.
    for (index::Index* idx : {btree.get(), art.get()}) {
      for (uint64_t i = 0; i < kKeys; ++i) {
        const uint64_t k = 2 * i + static_cast<uint64_t>(t);
        check(idx->Insert(core, index::Key::FromUint64(k), k * 3).ok());
      }
      for (uint64_t i = 0; i < kKeys; ++i) {
        const uint64_t k = 2 * i + static_cast<uint64_t>(t);
        uint64_t v = 0;
        check(idx->Lookup(core, index::Key::FromUint64(k), &v) &&
              v == k * 3);
        if (i % 3 == 0) {
          check(idx->Remove(core, index::Key::FromUint64(k)));
        }
      }
    }
    // Disjoint rows per thread: write column 1 of rows r % 2 == t, read
    // the row back, and append rows of its own.
    const storage::Schema& schema = table->schema();
    std::vector<uint8_t> row(schema.row_bytes());
    for (storage::RowId r = static_cast<uint64_t>(t); r < kRows;
         r += kThreads) {
      const int64_t value = static_cast<int64_t>(r * 10) + t;
      check(table->WriteColumn(core, r, 1, &value));
      check(table->ReadRow(core, r, row.data()) &&
            schema.GetLong(row.data(), 1) == value);
    }
    for (uint64_t i = 0; i < kAppends; ++i) {
      schema.SetLong(row.data(), 0, -1 - t);
      schema.SetLong(row.data(), 1, static_cast<int64_t>(i));
      appended[t].push_back(table->Append(core, row.data()));
    }
    // Exclusive locks on objects of its own, a shared lock on one
    // object both threads share: every request is grantable.
    for (uint64_t i = 0; i < 500; ++i) {
      const uint64_t txn = 2 * i + static_cast<uint64_t>(t) + 1;
      for (uint64_t j = 0; j < 4; ++j) {
        check(lm.Acquire(core, txn, 1000 * (t + 1) + j,
                         txn::LockMode::kExclusive)
                  .ok());
      }
      check(lm.Acquire(core, txn, kSharedObject, txn::LockMode::kShared)
                .ok());
      lm.ReleaseAll(core, txn);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(work, t);
  for (auto& th : threads) th.join();

  m.SetFreeRunning(false);
  for (int c = 0; c < kThreads; ++c) EXPECT_FALSE(m.core(c).free_running());
  EXPECT_EQ(failures.load(), 0);

  std::map<uint64_t, uint64_t> want_keys;
  for (uint64_t k = 0; k < kThreads * kKeys; ++k) {
    if ((k / 2) % 3 != 0) want_keys[k] = k * 3;
  }
  for (index::Index* idx : {btree.get(), art.get()}) {
    std::map<uint64_t, uint64_t> got;
    idx->ForEach([&got](const index::Key& k, uint64_t v) {
      got[k.AsUint64()] = v;
    });
    EXPECT_EQ(got, want_keys) << index::IndexKindName(idx->kind());
  }

  const storage::Schema& schema = table->schema();
  ASSERT_EQ(table->num_rows(), kRows + kThreads * kAppends);
  std::vector<uint8_t> row(schema.row_bytes());
  for (storage::RowId r = 0; r < kRows; ++r) {
    ASSERT_TRUE(table->ReadRow(&m.core(0), r, row.data()));
    EXPECT_EQ(schema.GetLong(row.data(), 1),
              static_cast<int64_t>(r * 10 + r % kThreads));
  }
  std::set<storage::RowId> ids;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kAppends; ++i) {
      const storage::RowId id = appended[t][i];
      ids.insert(id);
      ASSERT_TRUE(table->ReadRow(&m.core(0), id, row.data()));
      EXPECT_EQ(schema.GetLong(row.data(), 0), -1 - t);
      EXPECT_EQ(schema.GetLong(row.data(), 1), static_cast<int64_t>(i));
    }
  }
  EXPECT_EQ(ids.size(), kThreads * kAppends);

  EXPECT_EQ(lm.ActiveLocks(), 0u);
  EXPECT_FALSE(lm.Holds(1, kSharedObject));
}

}  // namespace
}  // namespace imoltp
