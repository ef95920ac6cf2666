#include "engine/mvcc_engine.h"

#include <cstring>

namespace imoltp::engine {

MvccEngine::MvccEngine(mcsim::MachineSim* machine,
                       const EngineOptions& options)
    : EngineBase(machine, options) {
  session_ = DefineRegion(profile_.session);
  query_layer_ = DefineRegion(profile_.query_layer);
  txn_mgmt_ = DefineRegion(profile_.txn_mgmt);
  mvcc_op_ = DefineRegion(profile_.mvcc_op);
  storage_op_ = DefineRegion(options.compilation ? profile_.storage_compiled
                                                 : profile_.storage_interp);
  index_op_ = DefineRegion(profile_.index_op);
  validate_commit_ = DefineRegion(profile_.validate_commit);
  log_ = DefineRegion(profile_.log);
}

/// Stored-procedure context: every operation runs MVCC visibility /
/// staging plus the (compiled or interpreted) storage-engine code.
class MvccEngine::Ctx final : public EngineBase::CtxBase {
 public:
  Ctx(MvccEngine* e, mcsim::CoreSim* core, uint64_t txn_id)
      : CtxBase(e, core, txn_id, /*slice=*/0), e_(e) {}

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
    return Lookup(table, key, row);
  }

  Status Read(int table, storage::RowId row, uint8_t* out) override {
    const Step step(e_, core_, SpanKind::kStorageAccess, e_->mvcc_op_.module);
    e_->Exec(core_, e_->storage_op_);
    core_->Retire(schema(table).row_bytes() * 4);
    e_->Exec(core_, e_->mvcc_op_);
    std::vector<uint8_t> version;
    if (e_->mvcc_.ReadOwnWrite(core_, txn_id_,
                               static_cast<uint64_t>(table), row,
                               &version) ||
        e_->mvcc_.Read(core_, txn_id_, static_cast<uint64_t>(table), row,
                       &version)) {
      // The txn's own staged image shadows every committed version;
      // otherwise an older image may be visible at this snapshot.
      std::memcpy(out, version.data(), schema(table).row_bytes());
      return Status::Ok();
    }
    return ReadRow(table, row, out);
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    mcsim::ScopedModule mod(core_, e_->mvcc_op_.module);
    const storage::Schema& sch = schema(table);
    std::vector<uint8_t> prior(sch.row_bytes());
    std::vector<uint8_t> next;
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      core_->Retire(sch.row_bytes() * 4);
      e_->Exec(core_, e_->mvcc_op_);
      // Versioned update: build the new full-row image from the current
      // one (multiversioning copies rows; it never updates in place).
      // "Current" means this transaction's own staged image when it
      // already wrote the row — otherwise a second single-column update
      // would rebuild from the committed image and silently drop the
      // first one.
      std::vector<uint8_t> own;
      if (e_->mvcc_.ReadOwnWrite(core_, txn_id_,
                                 static_cast<uint64_t>(table), row,
                                 &own)) {
        std::memcpy(prior.data(), own.data(), prior.size());
      } else {
        const Status s = ReadRow(table, row, prior.data());
        if (!s.ok()) return s;
      }
      next = prior;
      std::memcpy(next.data() + sch.column_offset(column), value,
                  sch.column_width(column));
      const Status s = e_->mvcc_.StageWrite(
          core_, txn_id_, static_cast<uint64_t>(table), row, next.data(),
          static_cast<uint32_t>(next.size()), prior.data());
      if (!s.ok()) return s;
    }
    obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
    e_->Exec(core_, e_->log_);
    LogRowUpdate(table, row, next.data(), prior.data());
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    mcsim::ScopedModule mod(core_, e_->index_op_.module);
    storage::RowId rid = storage::kInvalidRow;
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      const Status s = AppendRow(table, row, &rid);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kIndexProbe);
      e_->Exec(core_, e_->index_op_);
      const Status s = InsertPrimaryKey(table, key, rid);
      if (!s.ok()) return s;
      InsertSecondaryKeys(table, row, rid);
    }
    obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
    e_->Exec(core_, e_->log_);
    LogInsert(table, rid, row, key);
    return Inserted(table, rid, key, row, out_row);
  }

  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    mcsim::ScopedModule mod(core_, e_->mvcc_op_.module);
    uint8_t* before = RowScratch(table);
    Status s;
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      e_->Exec(core_, e_->mvcc_op_);
      s = ReadRow(table, row, before);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kIndexProbe);
      e_->Exec(core_, e_->index_op_);
      s = RemoveKeys(table, key, before);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      s = DeleteRow(table, row);
      if (!s.ok()) return s;
    }
    obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
    e_->Exec(core_, e_->log_);
    LogDelete(table, row, key, before);
    Deleted(table, row, key, before);
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
    return ScanPrimary(table, from, limit, rows);
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    const Step step(e_, core_, SpanKind::kIndexProbe, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
    return ScanIndex(table, secondary, from, limit, rows);
  }

 private:
  MvccEngine* e_;
};

Status MvccEngine::Begin(Txn& txn) {
  // Legacy frontend inherited from the parent disk-based system.
  Exec(txn.core, session_);
  Exec(txn.core, query_layer_);
  Exec(txn.core, txn_mgmt_);
  mcsim::ScopedModule mod(txn.core, txn_mgmt_.module);
  txn.id = mvcc_.Begin(txn.core);
  return Status::Ok();
}

EngineBase::CtxBase* MvccEngine::Open(CtxSlot* slot, const Txn& txn) {
  return slot->Emplace<Ctx>(this, txn.core, txn.id);
}

void MvccEngine::Abort(CtxBase& ctx) {
  // Staged versions are dropped; inserts and deletes were applied in
  // place, and their undo emits CLRs under checkpointing.
  mcsim::CoreSim* core = ctx.core();
  mvcc_.Abort(core, ctx.txn_id());
  ctx.Rollback();
  logs_[core->core_id()]->LogAbort(core, ctx.txn_id());
}

Status MvccEngine::Commit(CtxBase& ctx) {
  // Validation, installs and the commit record are charged to the
  // commit module, which stays set until Execute returns.
  mcsim::CoreSim* core = ctx.core();
  core->SetModule(validate_commit_.module);
  Exec(core, validate_commit_);
  std::vector<txn::MvccManager::StagedWrite> installs;
  const Status s = mvcc_.Commit(core, ctx.txn_id(), &installs);
  if (!s.ok()) {
    // Validation failure: staged updates vanish with the transaction,
    // but in-place inserts/deletes need explicit rollback.
    ctx.Rollback();
    logs_[core->core_id()]->LogAbort(core, ctx.txn_id());
    return s;
  }
  for (const auto& w : installs) {
    // Install the committed image as the table's current version.
    tables_[w.table_id].slices[0].rows->WriteRow(core, w.row,
                                                 w.data.data());
  }
  // Installed versions make the transaction's log records replayable
  // only with a commit record, as in-place inserts and deletes do.
  if (!installs.empty()) ctx.dirty = true;
  return Status::Ok();
}

void MvccEngine::LogCommit(CtxBase& ctx, const Txn& /*txn*/) {
  mcsim::CoreSim* core = ctx.core();
  obs::ScopedSpan span(&spans_, core, SpanKind::kLogAppend);
  Exec(core, log_);
  logs_[core->core_id()]->LogCommit(core, ctx.txn_id());
}

}  // namespace imoltp::engine
