#include "engine/disk_engine.h"

#include "obs/span.h"

namespace imoltp::engine {

namespace {

uint64_t LockObject(int table, uint64_t id) {
  return (static_cast<uint64_t>(table + 1) << 48) ^ id;
}

}  // namespace

DiskEngine::DiskEngine(EngineKind kind, mcsim::MachineSim* machine,
                       const EngineOptions& options)
    : EngineBase(machine, options),
      kind_(kind),
      full_stack_(kind == EngineKind::kDbmsD),
      row_level_locks_(kind == EngineKind::kShoreMt) {
  if (full_stack_) {
    DbmsDProfile p;
    network_ = DefineRegion(p.network);
    parser_ = DefineRegion(p.parser);
    optimizer_ = DefineRegion(p.optimizer);
    plan_exec_ = DefineRegion(p.plan_exec);
    xct_begin_ = DefineRegion(p.xct_begin);
    xct_commit_ = DefineRegion(p.xct_commit);
    btree_ = DefineRegion(p.btree);
    heap_bp_ = DefineRegion(p.heap_bp);
    lock_ = DefineRegion(p.lock);
    log_ = DefineRegion(p.log);
  } else {
    ShoreMtProfile p;
    xct_begin_ = DefineRegion(p.xct_begin);
    xct_commit_ = DefineRegion(p.xct_commit);
    btree_ = DefineRegion(p.btree);
    heap_bp_ = DefineRegion(p.heap_bp);
    lock_ = DefineRegion(p.lock);
    log_ = DefineRegion(p.log);
  }
  // Direct heap path for the buffer-pool ablation: a much smaller code
  // region (no page table, no latching, no pin bookkeeping).
  heap_direct_ = DefineRegion(RegionSpec{
      "sm-heap-direct", true, 8 << 10, 4 << 10, 1800, 7.0, 0.9});
  lock_manager_.set_fault_injector(options.fault_injector);
}

/// Stored-procedure context for the disk archetypes. Every data
/// operation goes through: plan interpretation (DBMS D only) → lock
/// manager → B-tree / buffer-pooled heap → log manager.
class DiskEngine::Ctx final : public TxnContext {
 public:
  Ctx(DiskEngine* e, mcsim::CoreSim* core, uint64_t txn_id)
      : e_(e), core_(core), txn_id_(txn_id) {}

  mcsim::CoreSim* core() override { return core_; }

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    PerOpFrontend();
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->btree_.module);
    e_->Exec(core_, e_->btree_);
    auto& slice = e_->tables_[table].slices[0];
    uint64_t value;
    if (slice.primary == nullptr ||
        !slice.primary->Lookup(core_, key, &value)) {
      return Status::NotFound();
    }
    *row = value;
    return Status::Ok();
  }

  Status Read(int table, storage::RowId row, uint8_t* out) override {
    auto& slice = e_->tables_[table].slices[0];
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLockAcquire);
      mcsim::ScopedModule mod(core_, e_->lock_.module);
      e_->Exec(core_, e_->lock_);
      const Status s = e_->lock_manager_.Acquire(
          core_, txn_id_, LockId(table, row), txn::LockMode::kShared);
      if (!s.ok()) return s;
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kStorageAccess);
    mcsim::ScopedModule mod(core_, HeapRegion().module);
    e_->Exec(core_, HeapRegion());
    if (!RowRead(slice, row, out)) return Status::NotFound();
    return Status::Ok();
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    auto& slice = e_->tables_[table].slices[0];
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLockAcquire);
      mcsim::ScopedModule mod(core_, e_->lock_.module);
      e_->Exec(core_, e_->lock_);
      const Status s = e_->lock_manager_.Acquire(
          core_, txn_id_, LockId(table, row), txn::LockMode::kExclusive);
      if (!s.ok()) return s;
    }
    const storage::Schema& schema = e_->tables_[table].def.schema;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      mcsim::ScopedModule mod(core_, HeapRegion().module);
      e_->Exec(core_, HeapRegion());
      // Before-image for undo (steal policy: in-place writes must be
      // reversible on abort).
      std::vector<uint8_t> before(schema.row_bytes());
      if (!RowRead(slice, row, before.data())) return Status::NotFound();
      EngineBase::UndoEntry u;
      u.kind = EngineBase::UndoEntry::Kind::kColumnImage;
      u.table = table;
      u.slice = 0;
      u.row = row;
      u.column = column;
      u.image.assign(schema.ColumnPtr(before.data(), column),
                     schema.ColumnPtr(before.data(), column) +
                         schema.column_width(column));
      undo.push_back(std::move(u));
      if (!RowWriteColumn(slice, row, column, value)) {
        return Status::NotFound();
      }
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
    mcsim::ScopedModule mod(core_, e_->log_.module);
    e_->Exec(core_, e_->log_);
    const auto& before_img = undo.back().image;
    e_->logs_[core_->core_id()]->LogUpdate(
        core_, txn_id_, static_cast<int16_t>(table), row,
        static_cast<int16_t>(column), value,
        schema.column_width(column), /*slice=*/0,
        e_->ckpt_logging() ? before_img.data() : nullptr,
        e_->ckpt_logging() ? static_cast<uint32_t>(before_img.size())
                           : 0);
    dirty = true;
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[0];
    PerOpFrontend();
    storage::RowId rid;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      mcsim::ScopedModule mod(core_, HeapRegion().module);
      e_->Exec(core_, HeapRegion());
      rid = RowAppend(slice, row);
      if (rid == storage::kInvalidRow) {
        return Status::ResourceExhausted("buffer pool full");
      }
    }
    Status s;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLockAcquire);
      mcsim::ScopedModule mod(core_, e_->lock_.module);
      e_->Exec(core_, e_->lock_);
      s = e_->lock_manager_.Acquire(core_, txn_id_, LockId(table, rid),
                                    txn::LockMode::kExclusive);
      if (!s.ok()) return s;
    }
    if (slice.primary != nullptr) {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      mcsim::ScopedModule mod(core_, e_->btree_.module);
      e_->Exec(core_, e_->btree_);
      s = slice.primary->Insert(core_, key, rid);
      if (!s.ok()) return s;
    }
    if (!slice.secondaries.empty()) {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      mcsim::ScopedModule mod(core_, e_->btree_.module);
      e_->InsertSecondaries(core_, rt, slice, row, rid);
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
    mcsim::ScopedModule mod(core_, e_->log_.module);
    e_->Exec(core_, e_->log_);
    e_->logs_[core_->core_id()]->Append(
        core_, txn::LogOp::kInsert, txn_id_, static_cast<int16_t>(table),
        rid, -1, row, rt.def.schema.row_bytes(), key.data(), key.size());
    EngineBase::UndoEntry u;
    u.kind = EngineBase::UndoEntry::Kind::kInsertedRow;
    u.table = table;
    u.slice = 0;
    u.row = rid;
    u.key = key;
    u.image.assign(row, row + rt.def.schema.row_bytes());
    undo.push_back(std::move(u));
    dirty = true;
    if (out_row != nullptr) *out_row = rid;
    return Status::Ok();
  }

  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    auto& slice = e_->tables_[table].slices[0];
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLockAcquire);
      mcsim::ScopedModule mod(core_, e_->lock_.module);
      e_->Exec(core_, e_->lock_);
      const Status s = e_->lock_manager_.Acquire(
          core_, txn_id_, LockId(table, row), txn::LockMode::kExclusive);
      if (!s.ok()) return s;
    }
    const storage::Schema& schema = e_->tables_[table].def.schema;
    std::vector<uint8_t> before(schema.row_bytes());
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      mcsim::ScopedModule mod(core_, HeapRegion().module);
      if (!RowRead(slice, row, before.data())) return Status::NotFound();
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      mcsim::ScopedModule mod(core_, e_->btree_.module);
      e_->Exec(core_, e_->btree_);
      if (!slice.primary->Remove(core_, key)) {
        return Status::NotFound();
      }
      e_->RemoveSecondaries(core_, e_->tables_[table], slice,
                            before.data());
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      mcsim::ScopedModule mod(core_, HeapRegion().module);
      e_->Exec(core_, HeapRegion());
      if (!RowDelete(slice, row)) return Status::NotFound();
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
    mcsim::ScopedModule mod(core_, e_->log_.module);
    e_->Exec(core_, e_->log_);
    e_->logs_[core_->core_id()]->Append(
        core_, txn::LogOp::kDelete, txn_id_, static_cast<int16_t>(table),
        row, -1, nullptr, 0, key.data(), key.size(), /*slice=*/0,
        e_->ckpt_logging() ? before.data() : nullptr,
        e_->ckpt_logging() ? schema.row_bytes() : 0);
    EngineBase::UndoEntry u;
    u.kind = EngineBase::UndoEntry::Kind::kDeletedRow;
    u.table = table;
    u.slice = 0;
    u.row = row;
    u.image = std::move(before);
    u.key = key;
    undo.push_back(std::move(u));
    dirty = true;
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    PerOpFrontend();
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->btree_.module);
    e_->Exec(core_, e_->btree_);
    auto& slice = e_->tables_[table].slices[0];
    slice.primary->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    PerOpFrontend();
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->btree_.module);
    e_->Exec(core_, e_->btree_);
    auto& slice = e_->tables_[table].slices[0];
    if (secondary < 0 ||
        secondary >= static_cast<int>(slice.secondaries.size())) {
      return Status::InvalidArgument("no such secondary index");
    }
    slice.secondaries[secondary]->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

 private:
  /// DBMS D interprets a plan operator per data operation.
  void PerOpFrontend() {
    if (e_->full_stack_) e_->Exec(core_, e_->plan_exec_);
  }

  /// Shore-MT: row-granularity lock ids; DBMS D: page granularity.
  uint64_t LockId(int table, storage::RowId row) const {
    if (e_->row_level_locks_ || !e_->options_.use_bufferpool) {
      return LockObject(table, row);
    }
    return LockObject(table, storage::DiskHeapFile::PageNo(row));
  }

  /// Buffer-pool ablation plumbing: the heap access path is either the
  /// slotted-page file behind the pool or a direct in-memory table.
  const mcsim::CodeRegion& HeapRegion() const {
    return e_->options_.use_bufferpool ? e_->heap_bp_ : e_->heap_direct_;
  }
  bool RowRead(EngineBase::Slice& slice, storage::RowId row,
               uint8_t* out) {
    return slice.disk ? slice.disk->Read(core_, row, out)
                      : slice.mem->ReadRow(core_, row, out);
  }
  bool RowWriteColumn(EngineBase::Slice& slice, storage::RowId row,
                      uint32_t column, const void* value) {
    if (slice.disk) {
      return slice.disk->WriteColumn(core_, row, column, value);
    }
    slice.mem->WriteColumn(core_, row, column, value);
    return true;
  }
  storage::RowId RowAppend(EngineBase::Slice& slice, const uint8_t* row) {
    return slice.disk ? slice.disk->Append(core_, row)
                      : slice.mem->Append(core_, row);
  }
  bool RowDelete(EngineBase::Slice& slice, storage::RowId row) {
    return slice.disk ? slice.disk->Delete(core_, row)
                      : slice.mem->Delete(core_, row);
  }

  DiskEngine* e_;
  mcsim::CoreSim* core_;
  uint64_t txn_id_;

 public:
  bool dirty = false;  // any update/insert/delete ran
  std::vector<EngineBase::UndoEntry> undo;
};

Status DiskEngine::Execute(int worker, const TxnRequest& request,
                           const std::function<Status(TxnContext&)>& body) {
  (void)request;
  mcsim::CoreSim* core = &machine_->core(worker);
  core->BeginTransaction();
  const uint64_t txn_id = ++next_txn_;

  if (full_stack_) {
    Exec(core, network_);
    Exec(core, parser_);
    Exec(core, optimizer_);
  }
  Exec(core, xct_begin_);

  // Crash before any work: nothing held, nothing logged.
  if (FaultCrash(fault::kCrashPreBody)) {
    return Status::Aborted("injected crash: pre_body");
  }

  Ctx ctx(this, core, txn_id);
  Status s = body(ctx);

  // Crash mid-commit: in-place changes stay dirty, locks stay held —
  // recovery must drop this transaction (no commit record was logged).
  if (s.ok() && FaultCrash(fault::kCrashMidCommit)) {
    return Status::Aborted("injected crash: mid_commit");
  }

  if (!s.ok()) {
    // Abort: undo in-place changes, release locks, log the abort.
    if (!ctx.undo.empty()) {
      obs::ScopedSpan span(&spans_, core,
                           obs::SpanKind::kStorageAccess);
      mcsim::ScopedModule mod(core, heap_bp_.module);
      ApplyUndo(core, ctx.undo, logs_[core->core_id()].get(), txn_id);
    }
    {
      obs::ScopedSpan span(&spans_, core,
                           obs::SpanKind::kLockAcquire);
      mcsim::ScopedModule mod(core, lock_.module);
      lock_manager_.ReleaseAll(core, txn_id);
    }
    {
      obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLogAppend);
      Exec(core, log_);
      logs_[core->core_id()]->LogAbort(core, txn_id);
    }
    Exec(core, xct_commit_);
    return s;
  }

  if (ctx.dirty) {
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLogAppend);
    mcsim::ScopedModule mod(core, log_.module);
    Exec(core, log_);
    logs_[core->core_id()]->LogCommit(core, txn_id);
  }
  // Crash after the commit record but before lock release / flush: the
  // commit is durable only up to the flushed log prefix.
  if (FaultCrash(fault::kCrashPostCommit)) {
    return Status::Aborted("injected crash: post_commit");
  }
  {
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLockAcquire);
    mcsim::ScopedModule mod(core, lock_.module);
    lock_manager_.ReleaseAll(core, txn_id);
  }
  Exec(core, xct_commit_);
  if (full_stack_) Exec(core, network_);
  return Status::Ok();
}

}  // namespace imoltp::engine
