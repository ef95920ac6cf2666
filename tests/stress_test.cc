// Heavier randomized stress tests: cross-checking the substrates against
// reference models under long random operation sequences, and the
// workloads under multi-partition execution.

#include <gtest/gtest.h>

#include <map>
#include <set>
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

}  // namespace
}  // namespace imoltp
