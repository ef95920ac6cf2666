// Fault-injection unit tests: the seeded FaultInjector's determinism
// contract (same seed + same arming + same hit order ⇒ same fault
// schedule), point isolation (unarmed points never draw from the RNG),
// the crash latch, and the injector's hooks in LogManager (torn
// records) and LockManager (spurious conflicts). Also covers the
// LogManager::Reserve growth path for records larger than the ring.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "mcsim/machine.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"

namespace imoltp::fault {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

std::vector<bool> FireSchedule(FaultInjector* inj, const char* point,
                               int hits) {
  std::vector<bool> fires;
  fires.reserve(hits);
  for (int i = 0; i < hits; ++i) fires.push_back(inj->Fires(point));
  return fires;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(99), b(99);
  a.Arm(kLockConflict, {0.25, 0});
  b.Arm(kLockConflict, {0.25, 0});
  const auto sa = FireSchedule(&a, kLockConflict, 500);
  const auto sb = FireSchedule(&b, kLockConflict, 500);
  EXPECT_EQ(sa, sb);
  // A 0.25 trigger over 500 hits fires somewhere strictly between
  // never and always (astronomically unlikely otherwise).
  int fires = 0;
  for (bool f : sa) fires += f;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 500);
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  FaultInjector a(1), b(2);
  a.Arm(kLockConflict, {0.5, 0});
  b.Arm(kLockConflict, {0.5, 0});
  EXPECT_NE(FireSchedule(&a, kLockConflict, 500),
            FireSchedule(&b, kLockConflict, 500));
}

TEST(FaultInjectorTest, NthHitFiresExactlyOnce) {
  FaultInjector inj(7);
  inj.Arm(kCrashMidCommit, {0.0, 5});
  for (int i = 1; i <= 20; ++i) {
    EXPECT_EQ(inj.Fires(kCrashMidCommit), i == 5) << "hit " << i;
  }
}

TEST(FaultInjectorTest, UnarmedPointNeverFiresAndNeverDrawsRng) {
  // Hitting an unarmed point between armed hits must not perturb the
  // armed point's schedule — unarmed points are counted, not drawn.
  FaultInjector plain(31337), noisy(31337);
  plain.Arm(kLockConflict, {0.3, 0});
  noisy.Arm(kLockConflict, {0.3, 0});
  std::vector<bool> sp, sn;
  for (int i = 0; i < 200; ++i) {
    sp.push_back(plain.Fires(kLockConflict));
    EXPECT_FALSE(noisy.Fires(kCoreDeath));  // unarmed
    sn.push_back(noisy.Fires(kLockConflict));
  }
  EXPECT_EQ(sp, sn);
  // The unarmed point's hits were still counted for reporting.
  for (const FaultPointStats& s : noisy.Stats()) {
    if (s.point == kCoreDeath) {
      EXPECT_EQ(s.hits, 200u);
      EXPECT_EQ(s.fires, 0u);
    }
  }
}

TEST(FaultInjectorTest, CrashLatchRecordsFirstPoint) {
  FaultInjector inj(5);
  inj.Arm(kCrashMidCommit, {0.0, 1});
  inj.Arm(kCrashPostCommit, {0.0, 1});
  EXPECT_FALSE(inj.crash_pending());
  EXPECT_TRUE(inj.FireCrash(kCrashMidCommit));
  EXPECT_TRUE(inj.crash_pending());
  EXPECT_EQ(inj.crash_point(), kCrashMidCommit);
  // A later crash fire does not overwrite the first point.
  EXPECT_TRUE(inj.FireCrash(kCrashPostCommit));
  EXPECT_EQ(inj.crash_point(), kCrashMidCommit);
  inj.ClearCrash();
  EXPECT_FALSE(inj.crash_pending());
  EXPECT_EQ(inj.crash_point(), "");
}

TEST(FaultInjectorTest, DisarmAllStopsFiringButKeepsCounters) {
  FaultInjector inj(11);
  inj.Arm(kLogTornRecord, {1.0, 0});
  EXPECT_TRUE(inj.Fires(kLogTornRecord));
  inj.DisarmAll();
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(inj.Fires(kLogTornRecord));
  const auto stats = inj.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].point, kLogTornRecord);
  EXPECT_EQ(stats[0].hits, 11u);
  EXPECT_EQ(stats[0].fires, 1u);
}

TEST(FaultInjectorTest, UniformIsSeededAndBounded) {
  FaultInjector a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Uniform(17);
    EXPECT_EQ(va, b.Uniform(17));
    EXPECT_LT(va, 17u);
  }
  EXPECT_EQ(a.Uniform(0), 0u);
}

TEST(FaultInjectorTest, KnownFaultPointRegistry) {
  for (const char* p : kAllFaultPoints) {
    EXPECT_TRUE(IsKnownFaultPoint(p)) << p;
  }
  EXPECT_FALSE(IsKnownFaultPoint("no.such.point"));
  EXPECT_FALSE(IsKnownFaultPoint(""));
}

// ---------------------------------------------------------------------------
// Injector hooks in the transaction layer
// ---------------------------------------------------------------------------

/// A copy of every record the log retains, oldest first.
std::vector<txn::LogRecord> Retained(const txn::LogManager& log) {
  std::vector<txn::LogRecord> out;
  for (uint64_t i = 0; i < log.records(); ++i) out.push_back(log.record(i));
  return out;
}

class FaultHookTest : public ::testing::Test {
 protected:
  FaultHookTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}
  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

TEST_F(FaultHookTest, TornRecordMarksExactlyTheFiredAppend) {
  FaultInjector inj(3);
  inj.Arm(kLogTornRecord, {0.0, 2});
  txn::LsnClock clock;
  txn::LogManager log(&clock);
  log.set_fault_injector(&inj);
  const uint8_t payload[16] = {0};
  for (int i = 0; i < 4; ++i) {
    log.LogUpdate(core_, 1, 0, i, 1, payload, 16);
  }
  const std::vector<txn::LogRecord> records = Retained(log);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].torn);
  EXPECT_TRUE(records[1].torn);  // the second append fired
  EXPECT_FALSE(records[2].torn);
  EXPECT_FALSE(records[3].torn);
}

TEST_F(FaultHookTest, InjectedLockConflictAborts) {
  FaultInjector inj(9);
  inj.Arm(kLockConflict, {0.0, 1});
  txn::LockManager lm;
  lm.set_fault_injector(&inj);
  // No real conflict exists — the injected one fires on the first
  // acquisition and aborts with a recognizable message so the abort
  // classifier can bucket it as injected_fault, not lock_conflict.
  const Status s = lm.Acquire(core_, 1, 100, txn::LockMode::kExclusive);
  EXPECT_TRUE(s.IsAborted());
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  EXPECT_FALSE(lm.Holds(1, 100));
  // The next acquisition (point no longer firing) succeeds.
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, txn::LockMode::kExclusive).ok());
}

// ---------------------------------------------------------------------------
// LogManager::Reserve growth (a record larger than the whole ring)
// ---------------------------------------------------------------------------

TEST_F(FaultHookTest, OversizedRecordGrowsRingInsteadOfOverflowing) {
  txn::LsnClock clock;
  txn::LogManager log(&clock, 64);  // smaller than one 256-byte payload
  ASSERT_EQ(log.capacity(), 64u);
  std::vector<uint8_t> payload(256, 0xAB);
  log.LogUpdate(core_, 1, 0, 7, -1, payload.data(),
                static_cast<uint32_t>(payload.size()));
  EXPECT_GE(log.capacity(), 256u + 32u);  // payload + header fit now
  const std::vector<txn::LogRecord> records = Retained(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload().size(), 256u);
  EXPECT_EQ(records[0].payload()[0], 0xAB);
  EXPECT_EQ(records[0].payload()[255], 0xAB);
  // The grown ring keeps working: wrap it a few times.
  for (int i = 0; i < 20; ++i) {
    log.LogUpdate(core_, 2, 0, i, -1, payload.data(),
                  static_cast<uint32_t>(payload.size()));
  }
  EXPECT_EQ(log.records(), 21u);
  EXPECT_GT(log.flushes(), 0u);
}

TEST_F(FaultHookTest, OversizedKeyAlsoGrowsRing) {
  txn::LsnClock clock;
  txn::LogManager log(&clock, 64);
  std::vector<uint8_t> key(300, 0x11);
  log.Append(core_, txn::LogOp::kInsert, 1, 0, 7, -1, nullptr, 0,
             key.data(), static_cast<uint32_t>(key.size()));
  const std::vector<txn::LogRecord> records = Retained(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key().size(), 300u);
}

}  // namespace
}  // namespace imoltp::fault
