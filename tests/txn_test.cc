#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "mcsim/machine.h"
#include "txn/lock_manager.h"
#include "txn/log_manager.h"
#include "txn/mvcc.h"
#include "txn/partition.h"

namespace imoltp::txn {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}
  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

// ---------------------------------------------------------------------------
// LockManager
// ---------------------------------------------------------------------------

using LockTest = TxnTest;

TEST_F(LockTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, 100));
  EXPECT_TRUE(lm.Holds(2, 100));
}

TEST_F(LockTest, ExclusiveConflictsWithShared) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kExclusive).IsAborted());
}

TEST_F(LockTest, SharedConflictsWithExclusive) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).IsAborted());
}

TEST_F(LockTest, ReacquisitionIsIdempotent) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_EQ(lm.ActiveLocks(), 1u);
}

TEST_F(LockTest, SoleHolderCanUpgrade) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  // Now exclusive: another shared must conflict.
  EXPECT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).IsAborted());
}

TEST_F(LockTest, UpgradeWithOtherSharersFails) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).IsAborted());
}

TEST_F(LockTest, ReleaseAllFreesEverything) {
  LockManager lm;
  for (uint64_t obj = 0; obj < 20; ++obj) {
    ASSERT_TRUE(lm.Acquire(core_, 1, obj, LockMode::kExclusive).ok());
  }
  EXPECT_EQ(lm.ActiveLocks(), 20u);
  lm.ReleaseAll(core_, 1);
  EXPECT_EQ(lm.ActiveLocks(), 0u);
  EXPECT_TRUE(lm.Acquire(core_, 2, 5, LockMode::kExclusive).ok());
}

TEST_F(LockTest, ReleasePreservesOtherHoldersLocks) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(core_, 2, 100, LockMode::kShared).ok());
  lm.ReleaseAll(core_, 1);
  EXPECT_FALSE(lm.Holds(1, 100));
  EXPECT_TRUE(lm.Holds(2, 100));
  EXPECT_EQ(lm.ActiveLocks(), 1u);
}

TEST_F(LockTest, DistinctObjectsDoNotConflict) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(core_, 1, 100, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(core_, 2, 101, LockMode::kExclusive).ok());
}

TEST_F(LockTest, ManyObjectsAcrossBuckets) {
  LockManager lm(16);  // tiny table: force chains
  for (uint64_t obj = 0; obj < 500; ++obj) {
    ASSERT_TRUE(lm.Acquire(core_, 1, obj * 7919, LockMode::kShared).ok());
  }
  EXPECT_EQ(lm.ActiveLocks(), 500u);
  EXPECT_TRUE(lm.Holds(1, 499 * 7919));
  lm.ReleaseAll(core_, 1);
  EXPECT_EQ(lm.ActiveLocks(), 0u);
}

// ---------------------------------------------------------------------------
// MvccManager
// ---------------------------------------------------------------------------

using MvccTest = TxnTest;

std::vector<uint8_t> Image(uint8_t fill) {
  return std::vector<uint8_t>(16, fill);
}

TEST_F(MvccTest, CommitReturnsStagedWrites) {
  MvccManager mvcc;
  const uint64_t t = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, t, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].table_id, 0u);
  EXPECT_EQ(installs[0].row, 5u);
  EXPECT_EQ(installs[0].data, next);
}

TEST_F(MvccTest, WriteWriteConflictAborts) {
  MvccManager mvcc;
  const uint64_t t1 = mvcc.Begin(core_);
  const uint64_t t2 = mvcc.Begin(core_);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t1, 0, 5, img.data(), 16, img.data()).ok());
  EXPECT_TRUE(mvcc.StageWrite(core_, t2, 0, 5, img.data(), 16, img.data())
                  .IsAborted());
}

TEST_F(MvccTest, AbortClearsPendingMarker) {
  MvccManager mvcc;
  const uint64_t t1 = mvcc.Begin(core_);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t1, 0, 5, img.data(), 16, img.data()).ok());
  mvcc.Abort(core_, t1);
  const uint64_t t2 = mvcc.Begin(core_);
  EXPECT_TRUE(
      mvcc.StageWrite(core_, t2, 0, 5, img.data(), 16, img.data()).ok());
}

TEST_F(MvccTest, ReaderValidationFailsWhenVersionMoves) {
  MvccManager mvcc;
  const uint64_t reader = mvcc.Begin(core_);
  std::vector<uint8_t> image;
  mvcc.Read(core_, reader, 0, 5, &image);  // observes version ts 0

  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  EXPECT_TRUE(mvcc.Commit(core_, reader, &installs).IsAborted());
}

TEST_F(MvccTest, SnapshotReaderSeesOldImage) {
  MvccManager mvcc;
  const uint64_t reader = mvcc.Begin(core_);  // snapshot before write

  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  std::vector<uint8_t> image;
  ASSERT_TRUE(mvcc.Read(core_, reader, 0, 5, &image));
  EXPECT_EQ(image.size(), 16u);  // served from the version chain
  EXPECT_EQ(image[0], 1);        // the prior image
}

// The old image is already overwritten: a transaction that read it and
// writes the row back would lose the writer's update, so it must fail
// validation.
TEST_F(MvccTest, SnapshotReaderOfOverwrittenImageFailsValidation) {
  MvccManager mvcc;
  const uint64_t reader = mvcc.Begin(core_);

  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  std::vector<uint8_t> image;
  ASSERT_TRUE(mvcc.Read(core_, reader, 0, 5, &image));
  auto lost = Image(3);
  ASSERT_TRUE(mvcc.StageWrite(core_, reader, 0, 5, lost.data(), 16,
                              next.data())
                  .ok());
  const Status s = mvcc.Commit(core_, reader, &installs);
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_NE(s.message().find("validation"), std::string::npos);
}

TEST_F(MvccTest, FreshReaderSeesTableContent) {
  MvccManager mvcc;
  const uint64_t writer = mvcc.Begin(core_);
  auto next = Image(2);
  auto prior = Image(1);
  ASSERT_TRUE(mvcc.StageWrite(core_, writer, 0, 5, next.data(), 16,
                              prior.data())
                  .ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, writer, &installs).ok());

  const uint64_t reader = mvcc.Begin(core_);  // snapshot after commit
  std::vector<uint8_t> image;
  EXPECT_FALSE(mvcc.Read(core_, reader, 0, 5, &image));
}

TEST_F(MvccTest, ReadOnlyTransactionCommits) {
  MvccManager mvcc;
  const uint64_t t = mvcc.Begin(core_);
  std::vector<uint8_t> image;
  mvcc.Read(core_, t, 0, 1, &image);
  mvcc.Read(core_, t, 0, 2, &image);
  std::vector<MvccManager::StagedWrite> installs;
  EXPECT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  EXPECT_TRUE(installs.empty());
}

TEST_F(MvccTest, TimestampsAdvanceOnCommitOnly) {
  MvccManager mvcc;
  const uint64_t c0 = mvcc.clock();
  const uint64_t t = mvcc.Begin(core_);
  EXPECT_EQ(mvcc.clock(), c0);
  auto img = Image(1);
  ASSERT_TRUE(
      mvcc.StageWrite(core_, t, 0, 1, img.data(), 16, img.data()).ok());
  std::vector<MvccManager::StagedWrite> installs;
  ASSERT_TRUE(mvcc.Commit(core_, t, &installs).ok());
  EXPECT_EQ(mvcc.clock(), c0 + 1);
}

// ---------------------------------------------------------------------------
// LogManager
// ---------------------------------------------------------------------------

using LogTest = TxnTest;

/// A log record field's bytes, for comparisons.
std::vector<uint8_t> Bytes(std::span<const uint8_t> field) {
  return {field.begin(), field.end()};
}

/// A copy of every record the log retains, oldest first.
std::vector<LogRecord> Retained(const LogManager& log) {
  std::vector<LogRecord> out;
  for (uint64_t i = 0; i < log.records(); ++i) out.push_back(log.record(i));
  return out;
}

TEST_F(LogTest, CountsRecordsAndBytes) {
  LsnClock clock;
  LogManager log(&clock);
  const uint8_t payload[32] = {0};
  log.LogUpdate(core_, 1, 0, 100, 1, payload, 32);
  log.LogCommit(core_, 1);
  EXPECT_EQ(log.records(), 2u);
  EXPECT_EQ(log.bytes_logged(), (32u + 32u) + 32u);
}

TEST_F(LogTest, BufferWrapsViaAsynchronousFlush) {
  LsnClock clock;
  LogManager log(&clock, 1024);
  const uint8_t payload[100] = {0};
  for (int i = 0; i < 50; ++i) {
    log.LogUpdate(core_, 1, 0, i, 1, payload, 100);
  }
  EXPECT_GT(log.flushes(), 0u);
  EXPECT_EQ(log.records(), 50u);
}

TEST_F(LogTest, SequentialWritesHaveGoodLocality) {
  LsnClock clock;
  LogManager log(&clock, 1 << 20);
  const uint8_t payload[28] = {0};
  for (int i = 0; i < 100; ++i) {
    log.LogUpdate(core_, 1, 0, i, 1, payload, 28);
  }
  // 100 records of 64 aligned bytes occupy 100 sequential lines; the
  // compulsory-miss count is bounded by that footprint.
  EXPECT_LE(core_->counters().misses.l1d, 101u);
}

TEST_F(LogTest, StableLogRetainsRecordsInLsnOrder) {
  LsnClock clock;
  LogManager log(&clock);
  const uint8_t payload[8] = {7};
  const uint8_t key[8] = {9};
  log.Append(core_, LogOp::kInsert, 42, 3, 17, -1, payload, 8, key, 8,
             1);
  log.LogCommit(core_, 42);
  const std::vector<LogRecord> records = Retained(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LT(records[0].lsn, records[1].lsn);
  EXPECT_EQ(records[0].op, LogOp::kInsert);
  EXPECT_EQ(records[0].txn_id, 42u);
  EXPECT_EQ(records[0].table, 3);
  EXPECT_EQ(records[0].row, 17u);
  EXPECT_EQ(records[0].slice, 1);
  EXPECT_EQ(records[0].payload().size(), 8u);
  EXPECT_EQ(records[0].key().size(), 8u);
  EXPECT_EQ(records[1].op, LogOp::kCommit);
}

TEST_F(LogTest, TruncateDropsRetainedRecords) {
  LsnClock clock;
  LogManager log(&clock);
  log.LogCommit(core_, 1);
  const uint64_t anchor = log.LogCommit(core_, 2);
  log.LogCommit(core_, 3);
  log.Truncate(anchor);
  ASSERT_EQ(Retained(log).size(), 2u);
  EXPECT_EQ(Retained(log)[0].lsn, anchor);
  EXPECT_EQ(log.truncated_records(), 1u);
  EXPECT_EQ(log.appended_records(), 3u);
}

TEST_F(LogTest, TruncateKeepsATransactionThatStraddlesTheAnchor) {
  // Transaction 2 logged an update before the anchor and committed
  // after it; a staged update reaches the table only at commit, so all
  // of transaction 2 stays.
  LsnClock clock;
  LogManager log(&clock);
  const uint8_t payload[8] = {};
  log.LogCommit(core_, 1);
  const uint64_t update =
      log.LogUpdate(core_, 2, 0, 5, -1, payload, sizeof(payload), 0);
  const uint64_t commit = log.LogCommit(core_, 2);
  log.Truncate(commit);
  ASSERT_EQ(Retained(log).size(), 2u);
  EXPECT_EQ(Retained(log)[0].lsn, update);
  EXPECT_EQ(log.truncated_records(), 1u);
  EXPECT_EQ(log.truncation_lsn(), commit);
}

TEST_F(LogTest, TruncateRecordsPositionEvenWhenLogDrainsEmpty) {
  // A fully truncated log must not look like a never-written log:
  // recovery needs the anchor LSN to know replay legitimately starts
  // past 0.
  LsnClock clock;
  LogManager log(&clock);
  log.LogCommit(core_, 1);
  const uint64_t last = log.LogCommit(core_, 2);
  log.Truncate(last + 1);
  EXPECT_TRUE(Retained(log).empty());
  EXPECT_EQ(log.truncation_lsn(), last + 1);
  EXPECT_EQ(log.truncated_records(), 2u);
  // Double truncation to an older anchor is a no-op and must not move
  // the recorded position backwards.
  log.Truncate(last);
  EXPECT_EQ(log.truncation_lsn(), last + 1);
}

// ---------------------------------------------------------------------------
// PartitionManager
// ---------------------------------------------------------------------------

using PartitionTest = TxnTest;

TEST_F(PartitionTest, RangePartitioningCoversKeySpace) {
  PartitionManager pm(4);
  EXPECT_EQ(pm.PartitionOf(0, 1000), 0);
  EXPECT_EQ(pm.PartitionOf(999, 1000), 3);
  EXPECT_EQ(pm.PartitionOf(250, 1000), 1);
  EXPECT_EQ(pm.PartitionOf(500, 1000), 2);
  // A key space 4 does not divide: every key routes to the partition
  // whose slice holds it, slice p being [floor(N·p/4), floor(N·(p+1)/4))
  // as the engines split tables.
  for (const uint64_t n : {10ULL, 1001ULL, 26214ULL}) {
    for (uint64_t key = 0; key < n; ++key) {
      int slice = 0;
      while (slice < 3 && n * (slice + 1) / 4 <= key) ++slice;
      ASSERT_EQ(pm.PartitionOf(key, n), slice) << key << " of " << n;
    }
  }
}

TEST_F(PartitionTest, SinglePartitionChecksOwnership) {
  PartitionManager pm(2);
  EXPECT_TRUE(pm.EnterSinglePartition(core_, 0, 0).ok());
  EXPECT_TRUE(pm.EnterSinglePartition(core_, 1, 0).IsAborted());
}

TEST_F(PartitionTest, MultiPartitionClaimAndRelease) {
  PartitionManager pm(4);
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 0, {0, 1, 2}).ok());
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {2, 3}).IsAborted());
  pm.ReleaseMultiPartition(core_, 0);
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {2, 3}).ok());
}

TEST_F(PartitionTest, FailedClaimReleasesPartialAcquisitions) {
  PartitionManager pm(4);
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 0, {2}).ok());
  // Worker 1 claims {1, 2}: 2 is taken, so 1 must not stay claimed.
  ASSERT_TRUE(pm.EnterMultiPartition(core_, 1, {1, 2}).IsAborted());
  EXPECT_TRUE(pm.EnterMultiPartition(core_, 3, {1}).ok());
}

TEST_F(LogTest, StableLogRetainsEveryField) {
  fault::FaultInjector inj(5);
  inj.Arm(fault::kLogTornRecord, {0.0, 3});  // the third append is torn
  LsnClock clock;
  LogManager log(&clock, 256);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> key = {9, 8, 7};
  const std::vector<uint8_t> before = {6, 6, 6, 6, 6, 6, 6};
  std::vector<uint8_t> huge(1000);  // larger than the ring
  for (size_t i = 0; i < huge.size(); ++i) {
    huge[i] = static_cast<uint8_t>(i * 31);
  }
  log.set_fault_injector(&inj);
  log.Append(core_, LogOp::kUpdate, 11, 2, 300, 1, payload.data(), 5,
             nullptr, 0, 3, before.data(), 7);  // full before-image
  log.Append(core_, LogOp::kInsert, 11, 4, 301, -1, payload.data(), 5,
             key.data(), 3, 1);  // empty before-image, column -1
  log.Append(core_, LogOp::kDelete, 12, 5, 302, -1, nullptr, 0,
             key.data(), 3, 2, before.data(), 7, /*clr=*/true);
  log.Append(core_, LogOp::kUpdate, 13, 6, 303, -1, huge.data(),
             static_cast<uint32_t>(huge.size()));
  log.LogCommit(core_, 13);

  const std::vector<LogRecord> r = Retained(log);
  ASSERT_EQ(r.size(), 5u);
  for (size_t i = 1; i < r.size(); ++i) EXPECT_LT(r[i - 1].lsn, r[i].lsn);

  EXPECT_EQ(r[0].op, LogOp::kUpdate);
  EXPECT_EQ(r[0].txn_id, 11u);
  EXPECT_EQ(r[0].table, 2);
  EXPECT_EQ(r[0].row, 300u);
  EXPECT_EQ(r[0].column, 1);
  EXPECT_EQ(r[0].slice, 3);
  EXPECT_EQ(Bytes(r[0].payload()), payload);
  EXPECT_TRUE(r[0].key().empty());
  EXPECT_EQ(Bytes(r[0].before()), before);
  EXPECT_FALSE(r[0].torn);
  EXPECT_FALSE(r[0].clr);

  EXPECT_EQ(r[1].op, LogOp::kInsert);
  EXPECT_EQ(r[1].column, -1);
  EXPECT_EQ(r[1].slice, 1);
  EXPECT_EQ(Bytes(r[1].payload()), payload);
  EXPECT_EQ(Bytes(r[1].key()), key);
  EXPECT_TRUE(r[1].before().empty());

  EXPECT_EQ(r[2].op, LogOp::kDelete);
  EXPECT_EQ(r[2].txn_id, 12u);
  EXPECT_TRUE(r[2].payload().empty());
  EXPECT_EQ(Bytes(r[2].key()), key);
  EXPECT_EQ(Bytes(r[2].before()), before);
  EXPECT_TRUE(r[2].torn);
  EXPECT_TRUE(r[2].clr);

  EXPECT_EQ(r[3].row, 303u);
  EXPECT_EQ(Bytes(r[3].payload()), huge);
  EXPECT_FALSE(r[3].torn);

  EXPECT_EQ(r[4].op, LogOp::kCommit);
  EXPECT_EQ(r[4].table, -1);
  EXPECT_TRUE(r[4].payload().empty());
}

TEST_F(LogTest, CopiedRecordIsByteEqualAndMovedFromRecordIsEmpty) {
  LsnClock clock;
  LogManager log(&clock);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> key = {9, 8, 7};
  const std::vector<uint8_t> before = {6, 6, 6, 6, 6, 6, 6};
  log.Append(core_, LogOp::kDelete, 21, 5, 302, 2, payload.data(), 5,
             key.data(), 3, 4, before.data(), 7, /*clr=*/true);
  const LogRecord& original = log.record(0);

  LogRecord copy = original;
  EXPECT_EQ(copy.lsn, original.lsn);
  EXPECT_EQ(copy.txn_id, 21u);
  EXPECT_EQ(copy.op, LogOp::kDelete);
  EXPECT_EQ(copy.table, 5);
  EXPECT_EQ(copy.row, 302u);
  EXPECT_EQ(copy.column, 2);
  EXPECT_EQ(copy.slice, 4);
  EXPECT_TRUE(copy.clr);
  EXPECT_EQ(Bytes(copy.payload()), payload);
  EXPECT_EQ(Bytes(copy.key()), key);
  EXPECT_EQ(Bytes(copy.before()), before);
  // A deep copy: its bytes live apart from the retained record's.
  EXPECT_NE(copy.payload().data(), original.payload().data());
  EXPECT_NE(copy.key().data(), original.key().data());
  EXPECT_NE(copy.before().data(), original.before().data());

  LogRecord moved = std::move(copy);
  EXPECT_EQ(Bytes(moved.payload()), payload);
  EXPECT_EQ(Bytes(moved.key()), key);
  EXPECT_EQ(Bytes(moved.before()), before);
  EXPECT_TRUE(copy.payload().empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(copy.key().empty());
  EXPECT_TRUE(copy.before().empty());

  copy = moved;  // a moved-from record takes a copy again
  EXPECT_EQ(Bytes(copy.before()), before);
  EXPECT_EQ(Bytes(original.payload()), payload);  // the original stays
}

TEST_F(LogTest, EmptyFieldsAllocateNothing) {
  LsnClock clock;
  LogManager log(&clock);
  const uint8_t payload[4] = {1, 2, 3, 4};
  const uint8_t key[8] = {5};
  // A non-null pointer with a zero length is still an empty field.
  log.Append(core_, LogOp::kUpdate, 1, 0, 7, 1, payload, 4, key, 0);
  log.LogCommit(core_, 1);
  const LogRecord& update = log.record(0);
  EXPECT_EQ(update.payload().size(), 4u);
  EXPECT_EQ(update.key().data(), nullptr);
  EXPECT_EQ(update.before().data(), nullptr);
  const LogRecord& commit = log.record(1);
  EXPECT_EQ(commit.payload().data(), nullptr);
  EXPECT_EQ(commit.key().data(), nullptr);
  EXPECT_EQ(commit.before().data(), nullptr);
  const LogRecord copy = commit;
  EXPECT_EQ(copy.payload().data(), nullptr);
  EXPECT_EQ(copy.key().data(), nullptr);
  EXPECT_EQ(copy.before().data(), nullptr);
}

TEST_F(LogTest, TruncateAcrossBlocksKeepsAStraddlingTransaction) {
  // Transaction 2's records run from the end of the first stable-log
  // block into the second, past the anchor.
  LsnClock clock;
  LogManager log(&clock);
  const uint64_t block = LogManager::kBlockRecords;
  const uint8_t payload[16] = {0};
  for (uint64_t i = 0; i + 2 < block; ++i) {
    log.LogUpdate(core_, 1, 0, i, -1, payload, sizeof(payload));
  }
  log.LogCommit(core_, 1);
  log.LogUpdate(core_, 2, 0, 1, -1, payload, sizeof(payload));
  const uint64_t anchor =
      log.LogUpdate(core_, 2, 0, 2, -1, payload, sizeof(payload));
  log.LogUpdate(core_, 2, 0, 3, -1, payload, sizeof(payload));
  const uint64_t commit2 = log.LogCommit(core_, 2);
  log.FlushAll();
  log.LogCommit(core_, 3);  // not flushed
  ASSERT_EQ(log.records(), block + 4);
  ASSERT_EQ(log.flushed_records(), block + 3);

  // Only transaction 1 goes.
  log.Truncate(anchor);
  EXPECT_EQ(log.truncated_records(), block - 1);
  ASSERT_EQ(log.records(), 5u);
  EXPECT_EQ(log.flushed_records(), 4u);
  EXPECT_EQ(log.record(0).txn_id, 2u);
  EXPECT_EQ(log.record(0).row, 1u);
  EXPECT_EQ(log.record(0).payload().size(), sizeof(payload));
  EXPECT_EQ(log.record(1).lsn, anchor);

  // Past transaction 2's commit: only the unflushed record remains, and
  // the first block is freed.
  log.Truncate(commit2 + 1);
  EXPECT_EQ(log.truncated_records(), block + 3);
  EXPECT_EQ(log.flushed_records(), 0u);
  ASSERT_EQ(log.records(), 1u);
  EXPECT_EQ(log.record(0).txn_id, 3u);
  EXPECT_EQ(log.record(0).op, LogOp::kCommit);
  EXPECT_EQ(log.appended_records(), block + 4);

  // The log keeps appending after the truncations.
  log.LogCommit(core_, 4);
  ASSERT_EQ(log.records(), 2u);
  EXPECT_EQ(log.record(1).txn_id, 4u);
  EXPECT_LT(log.record(0).lsn, log.record(1).lsn);
}

}  // namespace
}  // namespace imoltp::txn
