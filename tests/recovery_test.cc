// Crash-recovery tests: run transactions against an engine, then REDO
// its stable log onto a freshly populated database and verify the
// replayed state matches — updates applied, inserts present, deletes
// gone, aborted transactions invisible.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "mcsim/machine.h"
#include "txn/checkpoint.h"

namespace imoltp::engine {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
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

// (key, key + kSecondaryBase) rows with a secondary index on column 1,
// whose keys are therefore unique and disjoint from the primary keys.
constexpr int64_t kSecondaryBase = 1000000;

void IndexedGenerator(const storage::Schema& schema, storage::RowId r,
                      uint64_t seed, uint8_t* out) {
  (void)seed;
  schema.SetLong(out, 0, static_cast<int64_t>(r));
  schema.SetLong(out, 1, static_cast<int64_t>(r) + kSecondaryBase);
}

index::Key ValueSecondary(const storage::Schema& schema,
                          const uint8_t* row) {
  return index::Key::FromUint64(
      static_cast<uint64_t>(schema.GetLong(row, 1)));
}

TableDef IndexedTable(uint64_t rows) {
  TableDef def = SimpleTable(rows);
  def.generator = IndexedGenerator;
  def.secondaries.push_back({"by-value", ValueSecondary});
  return def;
}

// Engines whose logging is physical (replayable). VoltDB uses logical
// command logging, which REDO skips by design.
constexpr EngineKind kReplayable[] = {
    EngineKind::kShoreMt, EngineKind::kDbmsD, EngineKind::kHyPer,
    EngineKind::kDbmsM};

class RecoveryTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RecoveryTest()
      : machine_(NoTlb()),
        engine_(CreateEngine(GetParam(), &machine_, EngineOptions())) {
    EXPECT_TRUE(engine_->CreateDatabase({SimpleTable(kRows)}).ok());
  }

  Status Run(const std::function<Status(TxnContext&)>& body) {
    TxnRequest req;
    req.key_space = kRows;
    return engine_->Execute(0, req, body);
  }

  /// Fresh engine + database, then REDO this engine's log onto it.
  std::unique_ptr<Engine> Recover(mcsim::MachineSim* fresh_machine) {
    auto recovered =
        CreateEngine(GetParam(), fresh_machine, EngineOptions());
    EXPECT_TRUE(recovered->CreateDatabase({SimpleTable(kRows)}).ok());
    EXPECT_TRUE(recovered->Replay(engine_->StableLog()).ok());
    return recovered;
  }

  static int64_t ReadValue(Engine* engine, uint64_t key, bool* found) {
    int64_t value = 0;
    TxnRequest req;
    req.key_space = kRows;
    const Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
      storage::RowId rid;
      Status st = ctx.Probe(0, index::Key::FromUint64(key), &rid);
      if (!st.ok()) return st;
      uint8_t row[16];
      st = ctx.Read(0, rid, row);
      if (!st.ok()) return st;
      value = storage::TwoLongColumns().GetLong(row, 1);
      return Status::Ok();
    });
    *found = s.ok();
    return value;
  }

  static constexpr uint64_t kRows = 3000;

  mcsim::MachineSim machine_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(RecoveryTest, CommittedUpdatesSurviveReplay) {
  for (int64_t i = 0; i < 40; ++i) {
    const int64_t v = 90000 + i;
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  storage::RowId rid;
                  Status st = ctx.Probe(
                      0, index::Key::FromUint64(100 + i), &rid);
                  if (!st.ok()) return st;
                  return ctx.Update(0, rid, 1, &v);
                }).ok());
  }
  mcsim::MachineSim fresh(NoTlb());
  auto recovered = Recover(&fresh);
  for (int64_t i = 0; i < 40; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 100 + i, &found), 90000 + i);
    EXPECT_TRUE(found);
  }
}

TEST_P(RecoveryTest, CommittedInsertsSurviveReplay) {
  const storage::Schema schema = storage::TwoLongColumns();
  for (int64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  uint8_t row[16];
                  schema.SetLong(row, 0, 50000 + i);
                  schema.SetLong(row, 1, i * 11);
                  return ctx.Insert(
                      0, row, index::Key::FromUint64(50000 + i));
                }).ok());
  }
  mcsim::MachineSim fresh(NoTlb());
  auto recovered = Recover(&fresh);
  for (int64_t i = 0; i < 25; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 50000 + i, &found), i * 11);
    EXPECT_TRUE(found) << i;
  }
}

TEST_P(RecoveryTest, CommittedDeletesSurviveReplay) {
  for (uint64_t key : {7u, 77u, 777u}) {
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  storage::RowId rid;
                  Status st =
                      ctx.Probe(0, index::Key::FromUint64(key), &rid);
                  if (!st.ok()) return st;
                  return ctx.Delete(0, rid,
                                    index::Key::FromUint64(key));
                }).ok());
  }
  mcsim::MachineSim fresh(NoTlb());
  auto recovered = Recover(&fresh);
  for (uint64_t key : {7u, 77u, 777u}) {
    bool found = true;
    ReadValue(recovered.get(), key, &found);
    EXPECT_FALSE(found) << key;
  }
  bool found = false;
  ReadValue(recovered.get(), 8, &found);
  EXPECT_TRUE(found);  // neighbors intact
}

TEST_P(RecoveryTest, AbortedTransactionIsInvisibleAfterReplay) {
  // Update row 5, then fail the transaction by probing a missing key:
  // neither live state nor the replayed database may show the update.
  const int64_t poison = 666666;
  const Status s = Run([&](TxnContext& ctx) {
    storage::RowId rid;
    Status st = ctx.Probe(0, index::Key::FromUint64(5), &rid);
    if (!st.ok()) return st;
    st = ctx.Update(0, rid, 1, &poison);
    if (!st.ok()) return st;
    return ctx.Probe(0, index::Key::FromUint64(999999999), &rid);
  });
  ASSERT_FALSE(s.ok());

  bool found = false;
  EXPECT_NE(ReadValue(engine_.get(), 5, &found), poison)
      << "live state leaked an aborted update (undo failed)";
  ASSERT_TRUE(found);

  mcsim::MachineSim fresh(NoTlb());
  auto recovered = Recover(&fresh);
  EXPECT_NE(ReadValue(recovered.get(), 5, &found), poison)
      << "replay applied an uncommitted update";
}

TEST_P(RecoveryTest, AbortedInsertIsRolledBackLive) {
  const storage::Schema schema = storage::TwoLongColumns();
  const Status s = Run([&](TxnContext& ctx) {
    uint8_t row[16];
    schema.SetLong(row, 0, 60000);
    schema.SetLong(row, 1, 1);
    Status st = ctx.Insert(0, row, index::Key::FromUint64(60000));
    if (!st.ok()) return st;
    storage::RowId rid;
    return ctx.Probe(0, index::Key::FromUint64(999999999), &rid);
  });
  ASSERT_FALSE(s.ok());
  bool found = true;
  ReadValue(engine_.get(), 60000, &found);
  EXPECT_FALSE(found) << "aborted insert still probe-able";
}

TEST_P(RecoveryTest, ReplayIsIdempotentOnFreshState) {
  const int64_t v = 4242;
  ASSERT_TRUE(Run([&](TxnContext& ctx) {
                storage::RowId rid;
                Status st =
                    ctx.Probe(0, index::Key::FromUint64(9), &rid);
                if (!st.ok()) return st;
                return ctx.Update(0, rid, 1, &v);
              }).ok());
  mcsim::MachineSim fresh(NoTlb());
  auto recovered = Recover(&fresh);
  // A second REDO pass of pure updates must not change the outcome.
  ASSERT_TRUE(recovered->Replay(engine_->StableLog()).ok());
  bool found = false;
  EXPECT_EQ(ReadValue(recovered.get(), 9, &found), 4242);
}

TEST_P(RecoveryTest, AbortRecordSuppressesInterleavedDelete) {
  // Two committed deletes produce a log of interleaved kDelete/kCommit
  // records. Rewriting the second transaction's kCommit to kAbort must
  // flip exactly that delete to a no-op on replay: recovery's analysis
  // pass trusts the commit/abort records, not the presence of REDO
  // records.
  for (uint64_t key : {7u, 77u}) {
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  storage::RowId rid;
                  Status st =
                      ctx.Probe(0, index::Key::FromUint64(key), &rid);
                  if (!st.ok()) return st;
                  return ctx.Delete(0, rid,
                                    index::Key::FromUint64(key));
                }).ok());
  }
  std::vector<txn::LogRecord> log = engine_->StableLog();
  uint64_t aborted_txn = 0;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->op == txn::LogOp::kCommit) {
      it->op = txn::LogOp::kAbort;
      aborted_txn = it->txn_id;
      break;
    }
  }
  ASSERT_NE(aborted_txn, 0u);  // a commit record existed to rewrite
  bool has_delete_for_aborted = false;
  for (const auto& rec : log) {
    if (rec.op == txn::LogOp::kDelete && rec.txn_id == aborted_txn) {
      has_delete_for_aborted = true;
    }
  }
  ASSERT_TRUE(has_delete_for_aborted);

  mcsim::MachineSim fresh(NoTlb());
  auto recovered = CreateEngine(GetParam(), &fresh, EngineOptions());
  ASSERT_TRUE(recovered->CreateDatabase({SimpleTable(kRows)}).ok());
  ASSERT_TRUE(recovered->Replay(log).ok());
  bool found = true;
  ReadValue(recovered.get(), 7, &found);
  EXPECT_FALSE(found) << "committed delete lost";
  found = false;
  ReadValue(recovered.get(), 77, &found);
  EXPECT_TRUE(found) << "aborted delete applied on replay";
}

TEST_P(RecoveryTest, TruncatedMidTransactionDropsUncommittedTail) {
  // Six committed updates, then the log loses its suffix starting at
  // the last commit record — the crash hit mid-transaction from the
  // device's point of view. Replay must apply the five transactions
  // whose commits survived and ignore the commitless tail.
  for (int64_t i = 0; i < 6; ++i) {
    const int64_t v = 7000 + i;
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  storage::RowId rid;
                  Status st = ctx.Probe(
                      0, index::Key::FromUint64(200 + i), &rid);
                  if (!st.ok()) return st;
                  return ctx.Update(0, rid, 1, &v);
                }).ok());
  }
  std::vector<txn::LogRecord> log = engine_->StableLog();
  size_t last_commit = log.size();
  for (size_t i = log.size(); i-- > 0;) {
    if (log[i].op == txn::LogOp::kCommit) {
      last_commit = i;
      break;
    }
  }
  ASSERT_LT(last_commit, log.size());
  log.resize(last_commit);  // the tail txn's records lack their commit

  mcsim::MachineSim fresh(NoTlb());
  auto recovered = CreateEngine(GetParam(), &fresh, EngineOptions());
  ASSERT_TRUE(recovered->CreateDatabase({SimpleTable(kRows)}).ok());
  ASSERT_TRUE(recovered->Replay(log).ok());
  for (int64_t i = 0; i < 5; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 200 + i, &found), 7000 + i);
    EXPECT_TRUE(found) << i;
  }
  bool found = false;
  EXPECT_NE(ReadValue(recovered.get(), 205, &found), 7005)
      << "uncommitted tail transaction applied";
  EXPECT_TRUE(found);  // the row itself still exists, unmodified
}

TEST_P(RecoveryTest, TornRecordEndsTheUsableLog) {
  // A torn write (bad device checksum) ends the usable log: everything
  // committed before it replays, everything after — even with a valid
  // commit record — does not.
  for (int64_t i = 0; i < 4; ++i) {
    const int64_t v = 8000 + i;
    ASSERT_TRUE(Run([&](TxnContext& ctx) {
                  storage::RowId rid;
                  Status st = ctx.Probe(
                      0, index::Key::FromUint64(300 + i), &rid);
                  if (!st.ok()) return st;
                  return ctx.Update(0, rid, 1, &v);
                }).ok());
  }
  std::vector<txn::LogRecord> log = engine_->StableLog();
  size_t commits_seen = 0;
  for (auto& rec : log) {
    if (rec.op == txn::LogOp::kCommit && ++commits_seen == 3) {
      rec.torn = true;  // the third txn's commit reached disk torn
      break;
    }
  }
  ASSERT_EQ(commits_seen, 3u);

  mcsim::MachineSim fresh(NoTlb());
  auto recovered = CreateEngine(GetParam(), &fresh, EngineOptions());
  ASSERT_TRUE(recovered->CreateDatabase({SimpleTable(kRows)}).ok());
  ASSERT_TRUE(recovered->Replay(log).ok());
  for (int64_t i = 0; i < 2; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 300 + i, &found), 8000 + i);
  }
  for (int64_t i = 2; i < 4; ++i) {
    bool found = false;
    EXPECT_NE(ReadValue(recovered.get(), 300 + i, &found), 8000 + i)
        << "update past the torn record applied";
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReplayableEngines, RecoveryTest, ::testing::ValuesIn(kReplayable),
    [](const ::testing::TestParamInfo<EngineKind>& i) {
      std::string n = EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

// Checkpoint-aware recovery: the engine runs with fuzzy checkpointing
// enabled, the test drives the capture state machine via CheckpointTick
// and recovers a fresh instance from (device image, retained log,
// truncation anchor) instead of a full replay.
class CheckpointRecoveryTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  static constexpr uint64_t kRows = 3000;

  void Create(const txn::CheckpointPolicy& policy,
              const TableDef& def = SimpleTable(kRows), int cores = 1) {
    EngineOptions opts;
    opts.checkpoint = policy;
    mcsim::MachineConfig config = NoTlb();
    config.num_cores = cores;
    def_ = def;
    machine_ = std::make_unique<mcsim::MachineSim>(config);
    engine_ = CreateEngine(GetParam(), machine_.get(), opts);
    ASSERT_TRUE(engine_->CreateDatabase({def_}).ok());
  }

  /// Inserts (key, key + kSecondaryBase) on `worker`; `commit == false`
  /// makes the body fail so the engine rolls the insert back.
  Status InsertRow(int worker, int64_t key, bool commit) {
    TxnRequest req;
    req.key_space = kRows;
    return engine_->Execute(worker, req, [&](TxnContext& ctx) {
      uint8_t row[16];
      IndexedGenerator(def_.schema, static_cast<storage::RowId>(key), 0,
                       row);
      const Status st =
          ctx.Insert(0, row, index::Key::FromUint64(key));
      if (!st.ok()) return st;
      return commit ? Status::Ok() : Status::Aborted("rolled back");
    });
  }

  /// Idle worker-0 ticks until every record up to `lsn` is truncated.
  void TickPast(uint64_t lsn) {
    for (int i = 0; i < 1024 && engine_->LogTruncationLsn() <= lsn; ++i) {
      engine_->CheckpointTick(0);
    }
    ASSERT_GT(engine_->LogTruncationLsn(), lsn);
  }

  /// One committed single-row update followed by a checkpoint tick —
  /// the cadence the experiment driver provides at every transaction
  /// boundary.
  void UpdateAndTick(uint64_t key, int64_t value) {
    TxnRequest req;
    req.key_space = kRows;
    ASSERT_TRUE(engine_
                    ->Execute(0, req,
                              [&](TxnContext& ctx) {
                                storage::RowId rid;
                                Status st = ctx.Probe(
                                    0, index::Key::FromUint64(key), &rid);
                                if (!st.ok()) return st;
                                return ctx.Update(0, rid, 1, &value);
                              })
                    .ok());
    engine_->CheckpointTick(0);
  }

  /// Checkpoint ticks with no transaction in between — an idle worker
  /// still advances capture and (eventually) begins new checkpoints.
  void IdleTicks(int n) {
    for (int i = 0; i < n; ++i) engine_->CheckpointTick(0);
  }

  /// Recovers a fresh instance from this engine's device image +
  /// retained log and returns it (checkpointing disabled on the
  /// recovered side; it only reads the inputs).
  std::unique_ptr<Engine> Recover(std::vector<txn::CheckpointImage> device,
                                  txn::RecoveryStats* stats,
                                  Status* status = nullptr) {
    fresh_machine_ = std::make_unique<mcsim::MachineSim>(NoTlb());
    auto recovered =
        CreateEngine(GetParam(), fresh_machine_.get(), EngineOptions());
    EXPECT_TRUE(recovered->CreateDatabase({def_}).ok());
    const Status s =
        recovered->Recover(std::move(device), engine_->StableLog(),
                           engine_->LogTruncationLsn(), stats);
    if (status != nullptr) {
      *status = s;
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return recovered;
  }

  static int64_t ReadValue(Engine* engine, uint64_t key, bool* found) {
    int64_t value = 0;
    TxnRequest req;
    req.key_space = kRows;
    const Status s = engine->Execute(0, req, [&](TxnContext& ctx) {
      storage::RowId rid;
      Status st = ctx.Probe(0, index::Key::FromUint64(key), &rid);
      if (!st.ok()) return st;
      uint8_t row[16];
      st = ctx.Read(0, rid, row);
      if (!st.ok()) return st;
      value = storage::TwoLongColumns().GetLong(row, 1);
      return Status::Ok();
    });
    *found = s.ok();
    return value;
  }

  /// Key of the row that secondary `value` finds, or -1 if none.
  static int64_t KeyBySecondary(Engine* engine, int64_t value) {
    int64_t key = -1;
    TxnRequest req;
    req.key_space = kRows;
    engine->Execute(0, req, [&](TxnContext& ctx) {
      std::vector<storage::RowId> rows;
      Status st = ctx.ScanSecondary(
          0, 0, index::Key::FromUint64(static_cast<uint64_t>(value)), 1,
          &rows);
      if (!st.ok() || rows.empty()) return st;
      uint8_t row[16];
      st = ctx.Read(0, rows[0], row);
      if (!st.ok()) return st;
      const storage::Schema schema = storage::TwoLongColumns();
      if (schema.GetLong(row, 1) == value) key = schema.GetLong(row, 0);
      return Status::Ok();
    });
    return key;
  }

  TableDef def_;
  std::unique_ptr<mcsim::MachineSim> machine_;
  std::unique_ptr<mcsim::MachineSim> fresh_machine_;
  std::unique_ptr<Engine> engine_;
};

TEST_P(CheckpointRecoveryTest, EmptyLogAndDeviceRecoverCleanly) {
  // Recovery of a never-written instance is a clean no-op: nothing to
  // restore, nothing to replay, initial population intact.
  Create(txn::CheckpointPolicy{});  // disabled
  txn::RecoveryStats stats;
  auto recovered = Recover({}, &stats);
  EXPECT_FALSE(stats.used_checkpoint);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(stats.undone_records, 0u);
  bool found = false;
  ReadValue(recovered.get(), 42, &found);
  EXPECT_TRUE(found);
}

TEST_P(CheckpointRecoveryTest, CheckpointedRoundTripReplaysOnlyTheTail) {
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 8;
  Create(policy);
  for (int64_t i = 0; i < 48; ++i) {
    UpdateAndTick(100 + i, 20000 + i);
  }
  const txn::CheckpointManager* cm = engine_->checkpoints();
  ASSERT_NE(cm, nullptr);
  ASSERT_GE(cm->stats().completed, 1u);
  ASSERT_GT(engine_->LogTruncationLsn(), 0u);

  txn::RecoveryStats stats;
  auto recovered = Recover(cm->DeviceImage(), &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  // The whole point of the checkpoint: strictly fewer records replayed
  // than the lifetime log.
  EXPECT_LT(stats.replayed_records, engine_->AppendedLogRecords());
  for (int64_t i = 0; i < 48; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 100 + i, &found), 20000 + i);
    EXPECT_TRUE(found) << i;
  }
}

TEST_P(CheckpointRecoveryTest, CheckpointOnlyRecoveryNeedsNoTailReplay) {
  // retain=1 anchors the log at the newest checkpoint's own begin LSN.
  // After the last transaction, idle ticks complete a final checkpoint
  // whose capture already holds every update — the retained tail is
  // pure checkpoint markers and replays zero records.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 4;
  policy.retain = 1;
  Create(policy);
  for (int64_t i = 0; i < 12; ++i) {
    UpdateAndTick(500 + i, 31000 + i);
  }
  const txn::CheckpointManager* cm = engine_->checkpoints();
  ASSERT_NE(cm, nullptr);
  const uint64_t completed_before = cm->stats().completed;
  IdleTicks(64);  // at least one full begin→complete cycle, no new data
  ASSERT_GT(cm->stats().completed, completed_before);
  // Several completions at retain=1 mean the log was truncated more
  // than once; repeated truncation must stay monotone and harmless.
  EXPECT_GE(cm->stats().truncations, 2u);
  ASSERT_GT(engine_->LogTruncationLsn(), 0u);

  txn::RecoveryStats stats;
  auto recovered = Recover(cm->DeviceImage(), &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.replayed_records, 0u)
      << "tail past the final checkpoint should be markers only";
  for (int64_t i = 0; i < 12; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 500 + i, &found), 31000 + i);
    EXPECT_TRUE(found) << i;
  }
}

TEST_P(CheckpointRecoveryTest, CrashDuringCaptureUsesPreviousCheckpoint) {
  // Slow the capture rate down and crash while the second checkpoint is
  // still pending: the device holds only the first complete checkpoint,
  // and recovery restores it + replays the tail — including the updates
  // the dead capture had not reached.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 8;
  policy.pages_per_step = 1;
  Create(policy);
  const txn::CheckpointManager* cm = engine_->checkpoints();
  ASSERT_NE(cm, nullptr);
  int64_t i = 0;
  while (cm->stats().begun < 2 && i < 256) {
    UpdateAndTick(700 + i, 45000 + i);
    ++i;
  }
  ASSERT_GE(cm->stats().begun, 2u);
  ASSERT_EQ(cm->stats().completed, 1u);
  const auto device = cm->DeviceImage();
  ASSERT_EQ(device.size(), 1u);  // the pending capture never lands

  txn::RecoveryStats stats;
  auto recovered = Recover(device, &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.checkpoint_id, device[0].id);
  for (int64_t k = 0; k < i; ++k) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 700 + k, &found), 45000 + k);
    EXPECT_TRUE(found) << k;
  }
}

TEST_P(CheckpointRecoveryTest, TornPageFallsBackToPreviousCheckpoint) {
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 4;
  Create(policy);
  for (int64_t i = 0; i < 32; ++i) {
    UpdateAndTick(900 + i, 52000 + i);
  }
  const txn::CheckpointManager* cm = engine_->checkpoints();
  ASSERT_NE(cm, nullptr);
  std::vector<txn::CheckpointImage> device = cm->DeviceImage();
  ASSERT_GE(device.size(), 2u);
  txn::CheckpointImage& newest = device.back();
  txn::CheckpointPage* victim = nullptr;
  for (auto& slice : newest.slices) {
    if (!slice.pages.empty()) victim = &slice.pages.front();
  }
  ASSERT_NE(victim, nullptr) << "newest checkpoint captured no pages";
  txn::TearPage(victim);
  ASSERT_TRUE(newest.AnyTorn());

  txn::RecoveryStats stats;
  auto recovered = Recover(device, &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_GE(stats.torn_pages, 1u);
  EXPECT_EQ(stats.checkpoints_discarded, 1u);
  EXPECT_EQ(stats.checkpoint_id, device[device.size() - 2].id)
      << "should have fallen back to the previous complete checkpoint";
  // The retained log reaches back to the oldest retained checkpoint's
  // begin LSN, so the fallback loses nothing.
  for (int64_t i = 0; i < 32; ++i) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), 900 + i, &found), 52000 + i);
    EXPECT_TRUE(found) << i;
  }
}

TEST_P(CheckpointRecoveryTest, TruncatedLogWithoutCheckpointIsAnError) {
  // Once the log has been truncated, a full replay is unsound — if no
  // checksum-clean checkpoint survives either, recovery must refuse
  // rather than silently produce a hole.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 4;
  Create(policy);
  for (int64_t i = 0; i < 16; ++i) {
    UpdateAndTick(1200 + i, 61000 + i);
  }
  ASSERT_GT(engine_->LogTruncationLsn(), 0u);
  txn::RecoveryStats stats;
  Status status;
  Recover({}, &stats, &status);  // the checkpoint device burned down
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(stats.used_checkpoint);
}

TEST_P(CheckpointRecoveryTest, IndexEntriesSurviveTruncatedLog) {
  // The inserts and the delete below are truncated out of the log, so
  // only the checkpoint's index images can carry their index entries:
  // the restored pages hold the rows, but a fresh database's indexes
  // still hold exactly the population.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 4;
  Create(policy, IndexedTable(kRows));
  for (int64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(InsertRow(0, kRows + k, /*commit=*/true).ok()) << k;
    engine_->CheckpointTick(0);
  }
  constexpr int64_t kDeleted = 123;
  TxnRequest req;
  req.key_space = kRows;
  ASSERT_TRUE(engine_
                  ->Execute(0, req,
                            [&](TxnContext& ctx) {
                              const index::Key key =
                                  index::Key::FromUint64(kDeleted);
                              storage::RowId rid;
                              const Status st = ctx.Probe(0, key, &rid);
                              if (!st.ok()) return st;
                              return ctx.Delete(0, rid, key);
                            })
                  .ok());
  TickPast(engine_->StableLog().back().lsn);

  txn::RecoveryStats stats;
  auto recovered = Recover(engine_->checkpoints()->DeviceImage(), &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_GT(stats.index_entries, 0u);
  for (int64_t k = kRows; k < static_cast<int64_t>(kRows) + 8; ++k) {
    bool found = false;
    EXPECT_EQ(ReadValue(recovered.get(), k, &found), k + kSecondaryBase);
    EXPECT_TRUE(found) << k;
    EXPECT_EQ(KeyBySecondary(recovered.get(), k + kSecondaryBase), k);
  }
  bool found = true;
  ReadValue(recovered.get(), kDeleted, &found);
  EXPECT_FALSE(found) << "deleted key is back in the primary index";
  EXPECT_EQ(KeyBySecondary(recovered.get(), kDeleted + kSecondaryBase), -1)
      << "deleted key is back in the secondary index";
}

TEST_P(CheckpointRecoveryTest, StaleClrDoesNotDeleteReusedSlot) {
  // Worker 1 rolls an insert back (its CLR frees the heap slot) and
  // then never ticks again, so its log is never truncated. Worker 0's
  // committed insert reuses the slot (slotted pages reuse freed
  // slots), and worker 0 ticks until the anchor passes that insert.
  // Redo must start at the checkpoint's begin LSN: replaying the stale
  // CLR would delete worker 0's committed row.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 4;
  Create(policy, IndexedTable(kRows), /*cores=*/2);
  constexpr int64_t kAborted = kRows + 10;
  constexpr int64_t kCommitted = kRows + 11;
  ASSERT_FALSE(InsertRow(1, kAborted, /*commit=*/false).ok());
  ASSERT_TRUE(InsertRow(0, kCommitted, /*commit=*/true).ok());
  TickPast(engine_->StableLog().back().lsn);

  txn::RecoveryStats stats;
  auto recovered = Recover(engine_->checkpoints()->DeviceImage(), &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  bool found = false;
  EXPECT_EQ(ReadValue(recovered.get(), kCommitted, &found),
            kCommitted + kSecondaryBase);
  EXPECT_TRUE(found) << "committed row lost to a stale CLR";
  ReadValue(recovered.get(), kAborted, &found);
  EXPECT_FALSE(found);
}

// Engines whose tables are one shared slice, so worker 1 can run a
// transaction while worker 0 drives a checkpoint.
class SharedSliceRecoveryTest : public CheckpointRecoveryTest {};

TEST_P(SharedSliceRecoveryTest, UpdateStraddlingTheAnchorSurvives) {
  // Worker 1 logs an update, then a whole checkpoint runs before it
  // commits; retain=1 makes that checkpoint's begin LSN the anchor.
  // DBMS M's staged (MVCC) update reaches the table only at commit, so
  // the checkpoint copied the old row and only the log holds the new
  // one: truncation must keep the straddling transaction's records,
  // and redo must apply them although they predate the begin LSN.
  txn::CheckpointPolicy policy;
  policy.enabled = true;
  policy.every_n_ticks = 2;
  policy.pages_per_step = 64;
  policy.retain = 1;
  Create(policy, SimpleTable(kRows), /*cores=*/2);
  constexpr uint64_t kKey = 77;
  UpdateAndTick(kKey, 1);  // dirties the row's page
  TxnRequest req;
  req.key_space = kRows;
  const txn::CheckpointManager* cm = engine_->checkpoints();
  ASSERT_TRUE(engine_
                  ->Execute(1, req,
                            [&](TxnContext& ctx) {
                              storage::RowId rid;
                              Status st = ctx.Probe(
                                  0, index::Key::FromUint64(kKey), &rid);
                              if (!st.ok()) return st;
                              const int64_t value = 2;
                              st = ctx.Update(0, rid, 1, &value);
                              const uint64_t done =
                                  cm->stats().completed + 1;
                              for (int i = 0;
                                   i < 64 && cm->stats().completed < done;
                                   ++i) {
                                engine_->CheckpointTick(0);
                              }
                              return st;
                            })
                  .ok());
  ASSERT_EQ(cm->stats().completed, 1u);
  engine_->CheckpointTick(1);  // worker 1 truncates to the anchor

  txn::RecoveryStats stats;
  auto recovered = Recover(cm->DeviceImage(), &stats);
  EXPECT_TRUE(stats.used_checkpoint);
  bool found = false;
  EXPECT_EQ(ReadValue(recovered.get(), kKey, &found), 2);
  EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    ReplayableEngines, CheckpointRecoveryTest,
    ::testing::ValuesIn(kReplayable),
    [](const ::testing::TestParamInfo<EngineKind>& i) {
      std::string n = EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

INSTANTIATE_TEST_SUITE_P(
    NonPartitionedEngines, SharedSliceRecoveryTest,
    ::testing::Values(EngineKind::kShoreMt, EngineKind::kDbmsD,
                      EngineKind::kDbmsM),
    [](const ::testing::TestParamInfo<EngineKind>& i) {
      std::string n = EngineKindName(i.param);
      for (char& c : n) {
        if (c == '-' || c == ' ') c = '_';
      }
      return n;
    });

TEST(CommandLogTest, VoltDbLogsCommandsNotPhysicalRecords) {
  mcsim::MachineSim m(NoTlb());
  auto engine =
      CreateEngine(EngineKind::kVoltDb, &m, EngineOptions());
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(1000)}).ok());
  const int64_t v = 1;
  TxnRequest req;
  ASSERT_TRUE(engine
                  ->Execute(0, req,
                            [&](TxnContext& ctx) {
                              storage::RowId rid;
                              Status st = ctx.Probe(
                                  0, index::Key::FromUint64(3), &rid);
                              if (!st.ok()) return st;
                              return ctx.Update(0, rid, 1, &v);
                            })
                  .ok());
  const auto log = engine->StableLog();
  ASSERT_FALSE(log.empty());
  bool has_command = false;
  for (const auto& rec : log) {
    EXPECT_NE(rec.op, txn::LogOp::kUpdate);  // no physical records
    if (rec.op == txn::LogOp::kCommand) has_command = true;
  }
  EXPECT_TRUE(has_command);
  // Replay skips logical records without failing.
  EXPECT_TRUE(engine->Replay(log).ok());
}

TEST(CommandLogTest, VoltDbToleratesTruncatedAndAbortedCommandLog) {
  // The fifth engine's logical log has no physical REDO content, but
  // recovery must still accept a damaged one: a mid-transaction
  // truncation or an interleaved abort record cannot make Replay fail
  // or corrupt the freshly populated database.
  mcsim::MachineSim m(NoTlb());
  auto engine =
      CreateEngine(EngineKind::kVoltDb, &m, EngineOptions());
  ASSERT_TRUE(engine->CreateDatabase({SimpleTable(1000)}).ok());
  const int64_t v = 5;
  TxnRequest req;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    ->Execute(0, req,
                              [&](TxnContext& ctx) {
                                storage::RowId rid;
                                Status st = ctx.Probe(
                                    0, index::Key::FromUint64(3), &rid);
                                if (!st.ok()) return st;
                                return ctx.Update(0, rid, 1, &v);
                              })
                    .ok());
  }
  std::vector<txn::LogRecord> log = engine->StableLog();
  ASSERT_GE(log.size(), 2u);
  log.resize(log.size() - 1);          // lose the tail mid-transaction
  log.back().op = txn::LogOp::kAbort;  // and interleave an abort record

  mcsim::MachineSim fresh(NoTlb());
  auto recovered =
      CreateEngine(EngineKind::kVoltDb, &fresh, EngineOptions());
  ASSERT_TRUE(recovered->CreateDatabase({SimpleTable(1000)}).ok());
  EXPECT_TRUE(recovered->Replay(log).ok());
  storage::RowId rid;
  TxnRequest probe;
  EXPECT_TRUE(recovered
                  ->Execute(0, probe,
                            [&](TxnContext& ctx) {
                              return ctx.Probe(
                                  0, index::Key::FromUint64(3), &rid);
                            })
                  .ok());
}

}  // namespace
}  // namespace imoltp::engine
