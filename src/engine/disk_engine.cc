#include "engine/disk_engine.h"

#include "storage/disk_heap_file.h"

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
  // The storage manager's regions (DBMS D's follow its frontend's).
  auto define_sm = [this](const auto& p) {
    xct_begin_ = DefineRegion(p.xct_begin);
    xct_commit_ = DefineRegion(p.xct_commit);
    btree_ = DefineRegion(p.btree);
    heap_bp_ = DefineRegion(p.heap_bp);
    lock_ = DefineRegion(p.lock);
    log_ = DefineRegion(p.log);
  };
  if (full_stack_) {
    DbmsDProfile p;
    network_ = DefineRegion(p.network);
    parser_ = DefineRegion(p.parser);
    optimizer_ = DefineRegion(p.optimizer);
    plan_exec_ = DefineRegion(p.plan_exec);
    define_sm(p);
  } else {
    define_sm(ShoreMtProfile());
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
class DiskEngine::Ctx final : public EngineBase::CtxBase {
 public:
  Ctx(DiskEngine* e, mcsim::CoreSim* core, uint64_t txn_id)
      : CtxBase(e, core, txn_id, /*slice=*/0), e_(e) {}

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    PerOpFrontend();
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_);
    return Lookup(table, key, row);
  }

  Status Read(int table, storage::RowId row, uint8_t* out) override {
    Status s = Lock(table, row, txn::LockMode::kShared);
    if (!s.ok()) return s;
    const Step step(e_, core_, SpanKind::kStorageAccess, e_->HeapRegion());
    return ReadRow(table, row, out);
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    Status s = Lock(table, row, txn::LockMode::kExclusive);
    if (!s.ok()) return s;
    {
      const Step step(e_, core_, SpanKind::kStorageAccess, e_->HeapRegion());
      s = UpdateInPlace(table, row, column, value);
      if (!s.ok()) return s;
    }
    const Step step(e_, core_, SpanKind::kLogAppend, e_->log_);
    LogColumnUpdate(table, row, column, value);
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    PerOpFrontend();
    storage::RowId rid = storage::kInvalidRow;
    Status s;
    {
      const Step step(e_, core_, SpanKind::kStorageAccess, e_->HeapRegion());
      s = AppendRow(table, row, &rid);
      if (!s.ok()) return s;
    }
    s = Lock(table, rid, txn::LockMode::kExclusive);
    if (!s.ok()) return DropAppended(table, rid, s);
    if (slice(table).primary != nullptr) {
      const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_);
      s = InsertPrimaryKey(table, key, rid);
      if (!s.ok()) return s;
    }
    if (!slice(table).secondaries.empty()) {
      const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_.module);
      InsertSecondaryKeys(table, row, rid);
    }
    const Step step(e_, core_, SpanKind::kLogAppend, e_->log_);
    LogInsert(table, rid, row, key);
    return Inserted(table, rid, key, row, out_row);
  }

  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    Status s = Lock(table, row, txn::LockMode::kExclusive);
    if (!s.ok()) return s;
    uint8_t* before = RowScratch(table);
    {
      const Step step(e_, core_, SpanKind::kStorageAccess,
                      e_->HeapRegion().module);
      s = ReadRow(table, row, before);
      if (!s.ok()) return s;
    }
    {
      const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_);
      s = RemoveKeys(table, key, before);
      if (!s.ok()) return s;
    }
    {
      const Step step(e_, core_, SpanKind::kStorageAccess, e_->HeapRegion());
      s = DeleteRow(table, row);
      if (!s.ok()) return s;
    }
    const Step step(e_, core_, SpanKind::kLogAppend, e_->log_);
    LogDelete(table, row, key, before);
    Deleted(table, row, key, before);
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    PerOpFrontend();
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_);
    return ScanPrimary(table, from, limit, rows);
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    PerOpFrontend();
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->btree_);
    return ScanIndex(table, secondary, from, limit, rows);
  }

 private:
  /// DBMS D interprets a plan operator per data operation.
  void PerOpFrontend() {
    if (e_->full_stack_) e_->Exec(core_, e_->plan_exec_);
  }

  /// Two-phase locking: the lock-manager code path plus the request.
  Status Lock(int table, storage::RowId row, txn::LockMode mode) {
    const Step step(e_, core_, SpanKind::kLockAcquire, e_->lock_);
    return e_->lock_manager_.Acquire(core_, txn_id_, LockId(table, row),
                                     mode);
  }

  /// Shore-MT: row-granularity lock ids; DBMS D: page granularity.
  uint64_t LockId(int table, storage::RowId row) const {
    if (e_->row_level_locks_ || !e_->options_.use_bufferpool) {
      return LockObject(table, row);
    }
    return LockObject(table, storage::DiskHeapFile::PageNo(row));
  }

  DiskEngine* e_;
};

Status DiskEngine::Begin(Txn& txn) {
  if (full_stack_) {
    Exec(txn.core, network_);
    Exec(txn.core, parser_);
    Exec(txn.core, optimizer_);
  }
  Exec(txn.core, xct_begin_);
  return Status::Ok();
}

EngineBase::CtxBase* DiskEngine::Open(CtxSlot* slot, const Txn& txn) {
  return slot->Emplace<Ctx>(this, txn.core, txn.id);
}

void DiskEngine::Abort(CtxBase& ctx) {
  // Undo in-place changes under the locks, release them, log the abort
  // (charged outside the sm-log module, unlike the commit record).
  mcsim::CoreSim* core = ctx.core();
  if (!ctx.undo.empty()) {
    const Step step(this, core, SpanKind::kStorageAccess,
                    HeapRegion().module);
    ctx.Rollback();
  }
  Release(ctx);
  {
    obs::ScopedSpan span(&spans_, core, SpanKind::kLogAppend);
    Exec(core, log_);
    logs_[core->core_id()]->LogAbort(core, ctx.txn_id());
  }
  Exec(core, xct_commit_);
}

void DiskEngine::LogCommit(CtxBase& ctx, const Txn& /*txn*/) {
  const Step step(this, ctx.core(), SpanKind::kLogAppend, log_);
  logs_[ctx.core()->core_id()]->LogCommit(ctx.core(), ctx.txn_id());
}

void DiskEngine::Release(CtxBase& ctx) {
  const Step step(this, ctx.core(), SpanKind::kLockAcquire, lock_.module);
  lock_manager_.ReleaseAll(ctx.core(), ctx.txn_id());
}

void DiskEngine::Epilogue(CtxBase& ctx) {
  Exec(ctx.core(), xct_commit_);
  if (full_stack_) Exec(ctx.core(), network_);
}

}  // namespace imoltp::engine
