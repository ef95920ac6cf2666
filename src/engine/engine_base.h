#ifndef IMOLTP_ENGINE_ENGINE_BASE_H_
#define IMOLTP_ENGINE_ENGINE_BASE_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/profiles.h"
#include "obs/span.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "txn/checkpoint.h"
#include "txn/log_manager.h"

namespace imoltp::engine {

/// Shared machinery for the engine archetypes: the transaction lifecycle,
/// table slices (one per partition when partitioned, else one), bulk
/// population, code-region instantiation, and per-worker logging.
class EngineBase : public Engine {
 public:
  EngineBase(mcsim::MachineSim* machine, const EngineOptions& options);
  ~EngineBase() override = default;

  mcsim::MachineSim* machine() override { return machine_; }
  void set_op_hook(std::function<void()> hook) override {
    op_hook_ = std::move(hook);
  }
  obs::SpanCollector* span_collector() override { return &spans_; }

  Status CreateDatabase(const std::vector<TableDef>& defs) override;
  /// The transaction lifecycle, the same for every archetype: begin,
  /// body, abort or commit, the commit-record rule and the three crash
  /// points. The archetype fills in the hooks below.
  Status Execute(int worker, const TxnRequest& request,
                 const std::function<Status(TxnContext&)>& body) final;
  std::vector<txn::LogRecord> StableLog() const override;
  std::vector<txn::LogRecord> FlushedLog() const override;
  uint64_t StableLogSize() const override;
  void VisitStableLog(const std::function<void(const txn::LogRecord&)>&
                          visit) const override;
  Status Replay(const std::vector<txn::LogRecord>& log) override;
  void CheckpointTick(int worker) override;
  Status Recover(const std::vector<txn::CheckpointImage>& device,
                 const std::vector<txn::LogRecord>& log,
                 uint64_t log_truncation_lsn,
                 txn::RecoveryStats* stats) override;
  const txn::CheckpointManager* checkpoints() const override {
    return ckpt_.get();
  }
  uint64_t LogTruncationLsn() const override;
  uint64_t AppendedLogRecords() const override;

 protected:
  /// One partition's share of one table: its rows (a heap file behind
  /// the buffer pool on the disk engines, an in-memory table otherwise)
  /// and its indexes.
  struct Slice {
    std::unique_ptr<storage::Table> rows;
    std::unique_ptr<index::Index> primary;
    std::vector<std::unique_ptr<index::Index>> secondaries;
    uint64_t first_global_row = 0;
    uint64_t num_initial_rows = 0;
  };

  struct TableRt {
    TableDef def;
    std::vector<Slice> slices;
  };

  /// The primary key a log record carries.
  static index::Key RecordKey(const txn::LogRecord& rec) {
    return index::Key::FromBytes(rec.key().data(),
                                 static_cast<uint32_t>(rec.key().size()));
  }

  /// The slice a log record or checkpoint entry names (slice 0 when
  /// the ordinal is out of range).
  static Slice& SliceAt(TableRt& rt, int16_t slice) {
    return rt.slices[slice >= 0 &&
                             slice < static_cast<int16_t>(rt.slices.size())
                         ? slice
                         : 0];
  }

  /// How many slices this engine splits tables into (partitioned
  /// engines: one per worker; others: 1).
  virtual int num_slices() const { return 1; }

  /// True for the disk-based archetypes: CreateDatabase builds each
  /// slice's rows as a heap file in slotted pages behind the buffer pool.
  virtual bool disk_based() const { return false; }

  mcsim::CodeRegion DefineRegion(const RegionSpec& spec);

  using SpanKind = obs::SpanKind;

  /// One step of a transaction's work: a span charged to `kind`, with
  /// the core in `module` until the step ends. The region form runs the
  /// region's code as the step begins, in the region's module.
  class Step {
   public:
    Step(EngineBase* engine, mcsim::CoreSim* core, SpanKind kind,
         mcsim::ModuleId module)
        : span_(&engine->spans_, core, kind), module_(core, module) {}
    Step(EngineBase* engine, mcsim::CoreSim* core, SpanKind kind,
         const mcsim::CodeRegion& region)
        : Step(engine, core, kind, region.module) {
      core->ExecuteRegion(region);
    }

   private:
    obs::ScopedSpan span_;
    mcsim::ScopedModule module_;
  };

  /// Streams all index paths and rows once after population (steady-state
  /// cache warm-up; see CreateDatabase).
  void WarmCaches();

  void Exec(mcsim::CoreSim* core, const mcsim::CodeRegion& region) const {
    core->ExecuteRegion(region);
  }

  index::IndexKind PrimaryIndexKind(const TableDef& def) const;

  /// Default key derivation for initial rows when TableDef::key_of is
  /// unset: the global row id, encoded per key width.
  static index::Key DefaultKeyOf(const storage::Schema& schema,
                                 storage::RowId r, uint64_t seed);
  static index::Key KeyForRow(const TableDef& def, storage::RowId r);

  /// Per-engine default index kind.
  virtual index::IndexKind default_index_kind(
      const TableDef& def) const = 0;

  /// A worker's undo log for engines that modify state in place before
  /// commit: the running transaction's before-images and structural
  /// inverses. Images are packed into one byte arena and addressed by
  /// offset (the arena moves when it grows). Each worker owns one log
  /// and reuses it across transactions, so once its buffers have grown
  /// to the largest transaction, undo allocates nothing.
  struct UndoLog {
    enum class Kind { kColumnImage, kInsertedRow, kDeletedRow };
    struct Entry {
      Kind kind;
      int table;
      int slice;
      storage::RowId row;
      uint32_t column;
      uint32_t image_offset;  // before-image (column or full row)
      uint32_t image_bytes;
      index::Key key;
    };

    bool empty() const { return entries.empty(); }
    void Clear() {
      entries.clear();
      arena.clear();
    }
    void Push(Kind kind, int table, int slice, storage::RowId row,
              uint32_t column, const uint8_t* image, uint32_t bytes,
              const index::Key& key) {
      const uint32_t offset = static_cast<uint32_t>(arena.size());
      arena.insert(arena.end(), image, image + bytes);
      entries.push_back(
          {kind, table, slice, row, column, offset, bytes, key});
    }
    const uint8_t* image(const Entry& e) const {
      return arena.data() + e.image_offset;
    }
    /// Worker scratch for one row image (the before-row of an update or
    /// delete), valid until the next call.
    uint8_t* Scratch(uint32_t bytes) {
      if (scratch.size() < bytes) scratch.resize(bytes);
      return scratch.data();
    }

    std::vector<Entry> entries;
    std::vector<uint8_t> arena;
    std::vector<uint8_t> scratch;
  };

  /// The engine-neutral half of a stored-procedure context: the
  /// transaction's identity, its undo log, and the data work every
  /// archetype does alike (slice row operations, index maintenance,
  /// undo entries, redo records). An engine's context adds what makes
  /// it an archetype: the code regions it runs around each step, its
  /// concurrency control, and the span and module scopes the steps are
  /// charged to. No helper here opens a scope or runs a code region.
  class CtxBase : public TxnContext {
   public:
    mcsim::CoreSim* core() override { return core_; }
    uint64_t txn_id() const { return txn_id_; }

    /// Rolls a failed transaction back: applies `undo` in reverse
    /// order, then empties it. When fuzzy checkpointing is on and the
    /// engine logs physically, every undo action also emits a redo-only
    /// compensation record (CLR), so recovery can repair checkpoint
    /// pages that captured the aborted transaction's writes.
    void Rollback();

    bool dirty = false;  // an update, insert or delete ran
    /// The worker's undo log; a new context starts it empty.
    UndoLog& undo;

   protected:
    CtxBase(EngineBase* engine, mcsim::CoreSim* core, uint64_t txn_id,
            int slice)
        : undo(engine->undo_logs_[core->core_id()]),
          engine_(engine),
          core_(core),
          txn_id_(txn_id),
          slice_(slice) {
      undo.Clear();
    }

    Slice& slice(int table) const {
      return engine_->tables_[table].slices[slice_];
    }
    const storage::Schema& schema(int table) const {
      return engine_->tables_[table].def.schema;
    }

    /// Primary-index point lookup; kNotFound when the key is absent.
    Status Lookup(int table, const index::Key& key, storage::RowId* row);
    /// Ordered scans of the primary index and of secondary index
    /// `secondary` (kInvalidArgument when the table has no such index).
    Status ScanPrimary(int table, const index::Key& from, uint64_t limit,
                       std::vector<storage::RowId>* rows) {
      slice(table).primary->Scan(core_, from, limit, rows);
      return Status::Ok();
    }
    Status ScanIndex(int table, int secondary, const index::Key& from,
                     uint64_t limit, std::vector<storage::RowId>* rows);

    /// Worker scratch sized for one row of `table`.
    uint8_t* RowScratch(int table) {
      return undo.Scratch(schema(table).row_bytes());
    }

    /// Full-row read; kNotFound for a deleted or absent row.
    Status ReadRow(int table, storage::RowId row, uint8_t* out) {
      return slice(table).rows->ReadRow(core_, row, out)
                 ? Status::Ok()
                 : Status::NotFound();
    }
    /// In-place column update: saves the column's before-image as an
    /// undo entry, then writes the new value.
    Status UpdateInPlace(int table, storage::RowId row, uint32_t column,
                         const void* value);

    /// Insert, step by step. AppendRow places the row; until Inserted
    /// hands it to the undo log nothing owns it, so a step that fails
    /// in between returns through DropAppended, which deletes it again
    /// (never through a kInsertedRow entry: its key removal would
    /// delete the index entry of the row that refused the key).
    Status AppendRow(int table, const uint8_t* row, storage::RowId* rid);
    Status DropAppended(int table, storage::RowId rid, Status why) {
      slice(table).rows->Delete(core_, rid);
      return why;
    }
    /// The primary key (if the table has a primary index); a refused
    /// key drops the row.
    Status InsertPrimaryKey(int table, const index::Key& key,
                            storage::RowId rid);
    void InsertSecondaryKeys(int table, const uint8_t* row,
                             storage::RowId rid) {
      engine_->InsertSecondaries(core_, engine_->tables_[table],
                                 slice(table), row, rid);
    }
    /// The insert is complete: records its undo entry.
    Status Inserted(int table, storage::RowId rid, const index::Key& key,
                    const uint8_t* row, storage::RowId* out_row);

    /// Delete, step by step: the caller reads the before-image
    /// (ReadRow into RowScratch), removes the keys, deletes the row, and
    /// records the undo entry.
    Status RemoveKeys(int table, const index::Key& key,
                      const uint8_t* before);
    Status DeleteRow(int table, storage::RowId row) {
      return slice(table).rows->Delete(core_, row) ? Status::Ok()
                                                   : Status::NotFound();
    }
    void Deleted(int table, storage::RowId row, const index::Key& key,
                 const uint8_t* before) {
      undo.Push(UndoLog::Kind::kDeletedRow, table, slice_, row,
                /*column=*/0, before, schema(table).row_bytes(), key);
      dirty = true;
    }

    /// Redo records on this worker's log. Before-images ride along only
    /// while checkpointing is on (recovery needs them to roll back
    /// losers a fuzzy checkpoint captured). LogColumnUpdate logs the
    /// update UpdateInPlace just made (its undo entry holds the
    /// before-image).
    void LogColumnUpdate(int table, storage::RowId row, uint32_t column,
                         const void* value);
    void LogRowUpdate(int table, storage::RowId row, const uint8_t* image,
                      const uint8_t* before);
    void LogInsert(int table, storage::RowId rid, const uint8_t* row,
                   const index::Key& key);
    void LogDelete(int table, storage::RowId row, const index::Key& key,
                   const uint8_t* before);

    EngineBase* const engine_;
    mcsim::CoreSim* const core_;
    const uint64_t txn_id_;
    const int slice_;  // the home partition's slice (0 if unpartitioned)

   private:
    void Log(txn::LogOp op, int table, storage::RowId row, int column,
             const void* payload, uint32_t payload_bytes,
             const index::Key* key, const void* before,
             uint32_t before_bytes, bool clr = false);
  };

  /// Stack storage for one transaction's context: Execute keeps it in
  /// its frame and the archetype's Open hook builds its context in it,
  /// so no transaction allocates a context.
  struct CtxSlot {
    template <class Ctx, class... Args>
    Ctx* Emplace(Args&&... args) {
      static_assert(sizeof(Ctx) <= sizeof(bytes) &&
                    alignof(Ctx) <= alignof(std::max_align_t));
      return new (bytes) Ctx(std::forward<Args>(args)...);
    }
    alignas(std::max_align_t) unsigned char bytes[128];
  };

  /// A transaction as Execute begins it.
  struct Txn {
    mcsim::CoreSim* core;  // the worker's core
    const TxnRequest& request;
    uint64_t id;
  };

  /// The archetype's steps of the lifecycle Execute runs. Each hook
  /// opens its own spans and module scopes and runs its own code regions.
  ///
  /// Begin runs the frontend and enters concurrency control; a failure
  /// ends the transaction before any work. It may replace `txn.id`
  /// (DBMS M takes its ids from its MVCC manager).
  virtual Status Begin(Txn& txn) = 0;
  /// Builds the archetype's context in `slot`, after crash.pre_body.
  virtual CtxBase* Open(CtxSlot* slot, const Txn& txn) = 0;
  /// A failed body: rolls back, releases, logs the abort.
  virtual void Abort(CtxBase& ctx) = 0;
  /// A successful body, before the commit record. Validation may still
  /// fail the transaction; the hook has then rolled it back and logged
  /// the abort. The hook may switch the core's module for the rest of
  /// the transaction (Execute restores the caller's).
  virtual Status Commit(CtxBase& /*ctx*/) { return Status::Ok(); }
  /// The commit (or command) record of a transaction that changed data.
  virtual void LogCommit(CtxBase& ctx, const Txn& txn) = 0;
  /// After crash.post_commit: releases what the transaction holds, then
  /// runs the archetype's closing code.
  virtual void Release(CtxBase& /*ctx*/) {}
  virtual void Epilogue(CtxBase& /*ctx*/) {}

  /// Secondary-index maintenance from a row image.
  void InsertSecondaries(mcsim::CoreSim* core, TableRt& rt, Slice& slice,
                         const uint8_t* row, storage::RowId rid);
  void RemoveSecondaries(mcsim::CoreSim* core, TableRt& rt, Slice& slice,
                         const uint8_t* row);

  /// True while checkpointing is active: engines attach before-images
  /// to their physical log records (recovery needs them to roll back
  /// losers whose writes a fuzzy checkpoint captured).
  bool ckpt_logging() const { return ckpt_ != nullptr; }

  /// False for engines whose log carries no physical records (VoltDB
  /// command logging): CLRs and loser undo do not apply.
  virtual bool logs_physical() const { return true; }

  /// False for engines that stage updates privately until commit
  /// (MVCC): a loser's kUpdate never reached the table, so recovery
  /// must not write its before-image (it would clobber committed
  /// values).
  virtual bool updates_in_place() const { return true; }

  /// Crash-class point: latches crash_pending on the injector so the
  /// experiment loop halts. The engine returns Aborted — a crashed
  /// process does no further work in this transaction.
  bool FaultCrash(const char* point) {
    return options_.fault_injector != nullptr &&
           options_.fault_injector->FireCrash(point);
  }

  mcsim::MachineSim* machine_;
  EngineOptions options_;
  obs::SpanCollector spans_;
  std::vector<TableRt> tables_;
  std::unique_ptr<storage::BufferPool> bufferpool_;  // disk engines
  txn::LsnClock lsn_clock_;  // shared by the logs_, declared before them
  std::vector<std::unique_ptr<txn::LogManager>> logs_;  // per worker
  std::vector<UndoLog> undo_logs_;                       // per worker
  uint32_t next_file_id_ = 1;

  /// Checkpoint state (null when options_.checkpoint.enabled is false).
  std::unique_ptr<txn::CheckpointManager> ckpt_;

 private:
  /// Execute after Open: the body and its abort or commit.
  Status Run(CtxBase& ctx, const Txn& txn,
             const std::function<Status(TxnContext&)>& body);

  uint64_t next_txn_ = 0;
  std::function<void()> op_hook_;

  /// Capture worker `w`'s share of the pending checkpoint
  /// (partitioned engines: every table's slice w, atomically at a
  /// transaction boundary).
  void CapturePartition(int worker, txn::CheckpointImage* pending);
  /// Capture up to policy.pages_per_step pages of the fuzzy capture
  /// plan (non-partitioned engines, worker 0 ticks).
  void CaptureStep(mcsim::CoreSim* core, txn::CheckpointImage* pending);
  void CaptureSliceMeta(mcsim::CoreSim* core, int table, int slice_idx,
                        txn::CheckpointSliceImage* out);
  txn::CheckpointPage CapturePage(mcsim::CoreSim* core, int table,
                                  int slice_idx, uint64_t page_no);
  void BeginCheckpoint(int worker);
  void FinishCheckpoint(int worker);

  /// Restores one captured page onto the (freshly created) database.
  void RestorePage(mcsim::CoreSim* core, const txn::CheckpointPage& page,
                   txn::RecoveryStats* stats);
  /// Makes one slice index equal to its captured image.
  void RestoreIndex(mcsim::CoreSim* core, Slice& slice,
                    const txn::CheckpointIndexImage& image,
                    txn::RecoveryStats* stats);

  /// A worker log's share of the merged log.
  static uint64_t MergedRecords(const txn::LogManager& log,
                                bool flushed_only) {
    return flushed_only ? log.flushed_records() : log.records();
  }
  /// Calls `visit` on every worker's first MergedRecords() stable-log
  /// records, merged into LSN order where they lie (each worker's log
  /// is already in LSN order, so no sort is needed). The one merge
  /// routine: MergedLog copies through it, and the log digest reads
  /// through it.
  void VisitMergedLog(
      bool flushed_only,
      const std::function<void(const txn::LogRecord&)>& visit) const;
  /// The number of records VisitMergedLog visits.
  uint64_t MergedLogSize(bool flushed_only) const;
  /// The visited records, copied.
  std::vector<txn::LogRecord> MergedLog(bool flushed_only) const;

  /// ARIES REDO: applies committed transactions' records plus all CLRs
  /// whose effect landed at or after `from_lsn`, in LSN order. Shared by
  /// full replay (from 0) and checkpoint recovery (from the checkpoint's
  /// begin LSN); counts applied records into `stats`. Caller brackets
  /// with SetEnabled(false/true).
  Status RedoPass(const std::vector<txn::LogRecord>& log, uint64_t from_lsn,
                  txn::RecoveryStats* stats);

  uint64_t ticks_ = 0;  // worker-0 transaction ticks (cadence driver)
  /// Partitioned capture: which partitions contributed to the pending
  /// checkpoint.
  std::vector<uint8_t> slice_captured_;
  /// Fuzzy capture plan (non-partitioned): pages still to copy.
  struct CaptureUnit {
    int table;
    uint64_t page_no;
  };
  std::vector<CaptureUnit> capture_plan_;
  size_t capture_next_ = 0;
  /// Last completed checkpoint's truncation anchor. Workers truncate
  /// their own logs to it on their next tick.
  uint64_t truncate_anchor_ = 0;
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_ENGINE_BASE_H_
