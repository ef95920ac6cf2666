#include "engine/mvcc_engine.h"

#include <cstring>

#include "obs/span.h"

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
class MvccEngine::Ctx final : public TxnContext {
 public:
  Ctx(MvccEngine* e, mcsim::CoreSim* core, uint64_t txn_id)
      : e_(e), core_(core), txn_id_(txn_id) {}

  mcsim::CoreSim* core() override { return core_; }

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
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
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kStorageAccess);
    mcsim::ScopedModule mod(core_, e_->mvcc_op_.module);
    e_->Exec(core_, e_->storage_op_);
    core_->Retire(e_->tables_[table].def.schema.row_bytes() * 4);
    e_->Exec(core_, e_->mvcc_op_);
    auto& slice = e_->tables_[table].slices[0];
    std::vector<uint8_t> version;
    if (e_->mvcc_.ReadOwnWrite(core_, txn_id_,
                               static_cast<uint64_t>(table), row,
                               &version)) {
      // Read-your-own-writes: the txn's staged image shadows every
      // committed version.
      std::memcpy(out, version.data(),
                  e_->tables_[table].def.schema.row_bytes());
      return Status::Ok();
    }
    if (e_->mvcc_.Read(core_, txn_id_, static_cast<uint64_t>(table), row,
                       &version)) {
      // An older image is visible at this snapshot.
      std::memcpy(out, version.data(),
                  e_->tables_[table].def.schema.row_bytes());
      return Status::Ok();
    }
    if (!slice.mem->ReadRow(core_, row, out)) return Status::NotFound();
    return Status::Ok();
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    mcsim::ScopedModule mod(core_, e_->mvcc_op_.module);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[0];
    std::vector<uint8_t> next;
    std::vector<uint8_t> prior_copy;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      core_->Retire(rt.def.schema.row_bytes() * 4);
      e_->Exec(core_, e_->mvcc_op_);
      // Versioned update: build the new full-row image from the current
      // one (multiversioning copies rows; it never updates in place).
      // "Current" means this transaction's own staged image when it
      // already wrote the row — otherwise a second single-column update
      // would rebuild from the committed image and silently drop the
      // first one.
      std::vector<uint8_t> prior(rt.def.schema.row_bytes());
      std::vector<uint8_t> own;
      if (e_->mvcc_.ReadOwnWrite(core_, txn_id_,
                                 static_cast<uint64_t>(table), row,
                                 &own)) {
        std::memcpy(prior.data(), own.data(), prior.size());
      } else if (!slice.mem->ReadRow(core_, row, prior.data())) {
        return Status::NotFound();
      }
      next = prior;
      std::memcpy(next.data() + rt.def.schema.column_offset(column),
                  value, rt.def.schema.column_width(column));
      const Status s = e_->mvcc_.StageWrite(
          core_, txn_id_, static_cast<uint64_t>(table), row, next.data(),
          static_cast<uint32_t>(next.size()), prior.data());
      if (!s.ok()) return s;
      if (e_->ckpt_logging()) prior_copy = std::move(prior);
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
    e_->Exec(core_, e_->log_);
    e_->logs_[core_->core_id()]->LogUpdate(
        core_, txn_id_, static_cast<int16_t>(table), row, -1,
        next.data(), rt.def.schema.row_bytes(), /*slice=*/0,
        e_->ckpt_logging() ? prior_copy.data() : nullptr,
        e_->ckpt_logging() ? rt.def.schema.row_bytes() : 0);
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    mcsim::ScopedModule mod(core_, e_->index_op_.module);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[0];
    storage::RowId rid;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      rid = slice.mem->Append(core_, row);
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      e_->Exec(core_, e_->index_op_);
      if (slice.primary != nullptr) {
        const Status s = slice.primary->Insert(core_, key, rid);
        if (!s.ok()) return s;
      }
      e_->InsertSecondaries(core_, rt, slice, row, rid);
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
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
    if (out_row != nullptr) *out_row = rid;
    return Status::Ok();
  }

  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    mcsim::ScopedModule mod(core_, e_->mvcc_op_.module);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[0];
    std::vector<uint8_t> before(rt.def.schema.row_bytes());
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      e_->Exec(core_, e_->storage_op_);
      e_->Exec(core_, e_->mvcc_op_);
      if (!slice.mem->ReadRow(core_, row, before.data())) {
        return Status::NotFound();
      }
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      e_->Exec(core_, e_->index_op_);
      if (!slice.primary->Remove(core_, key)) {
        return Status::NotFound();
      }
      e_->RemoveSecondaries(core_, rt, slice, before.data());
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      if (!slice.mem->Delete(core_, row)) return Status::NotFound();
    }
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kLogAppend);
    e_->Exec(core_, e_->log_);
    e_->logs_[core_->core_id()]->Append(
        core_, txn::LogOp::kDelete, txn_id_, static_cast<int16_t>(table),
        row, -1, nullptr, 0, key.data(), key.size(), /*slice=*/0,
        e_->ckpt_logging() ? before.data() : nullptr,
        e_->ckpt_logging() ? rt.def.schema.row_bytes() : 0);
    EngineBase::UndoEntry u;
    u.kind = EngineBase::UndoEntry::Kind::kDeletedRow;
    u.table = table;
    u.slice = 0;
    u.row = row;
    u.image = std::move(before);
    u.key = key;
    undo.push_back(std::move(u));
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
    auto& slice = e_->tables_[table].slices[0];
    slice.primary->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, e_->index_op_.module);
    e_->Exec(core_, e_->storage_op_);
    e_->Exec(core_, e_->index_op_);
    auto& slice = e_->tables_[table].slices[0];
    if (secondary < 0 ||
        secondary >= static_cast<int>(slice.secondaries.size())) {
      return Status::InvalidArgument("no such secondary index");
    }
    slice.secondaries[secondary]->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

 private:
  MvccEngine* e_;
  mcsim::CoreSim* core_;
  uint64_t txn_id_;

 public:
  std::vector<EngineBase::UndoEntry> undo;
};

Status MvccEngine::Execute(int worker, const TxnRequest& request,
                           const std::function<Status(TxnContext&)>& body) {
  (void)request;
  mcsim::CoreSim* core = &machine_->core(worker);
  core->BeginTransaction();

  // Legacy frontend inherited from the parent disk-based system.
  Exec(core, session_);
  Exec(core, query_layer_);
  Exec(core, txn_mgmt_);

  uint64_t txn_id;
  {
    mcsim::ScopedModule mod(core, txn_mgmt_.module);
    txn_id = mvcc_.Begin(core);
  }
  // Crash before any work: the open snapshot just vanishes.
  if (FaultCrash(fault::kCrashPreBody)) {
    return Status::Aborted("injected crash: pre_body");
  }

  Ctx ctx(this, core, txn_id);
  Status s = body(ctx);

  // Crash mid-commit: staged versions die with the process; in-place
  // inserts/deletes stay dirty and no commit record exists, so recovery
  // drops the transaction.
  if (s.ok() && FaultCrash(fault::kCrashMidCommit)) {
    return Status::Aborted("injected crash: mid_commit");
  }

  if (!s.ok()) {
    mvcc_.Abort(core, txn_id);
    // Inserts/deletes were applied in place; their undo emits CLRs
    // under checkpointing.
    ApplyUndo(core, ctx.undo, logs_[core->core_id()].get(), txn_id);
    logs_[core->core_id()]->LogAbort(core, txn_id);
    return s;
  }

  mcsim::ScopedModule mod(core, validate_commit_.module);
  Exec(core, validate_commit_);
  std::vector<txn::MvccManager::StagedWrite> installs;
  s = mvcc_.Commit(core, txn_id, &installs);
  if (!s.ok()) {
    // Validation failure: staged updates vanish with the transaction,
    // but in-place inserts/deletes need explicit rollback.
    ApplyUndo(core, ctx.undo, logs_[core->core_id()].get(), txn_id);
    logs_[core->core_id()]->LogAbort(core, txn_id);
    return s;
  }
  for (const auto& w : installs) {
    auto& rt = tables_[w.table_id];
    auto& slice = rt.slices[0];
    // Install the committed image as the table's current version.
    for (uint32_t c = 0; c < rt.def.schema.num_columns(); ++c) {
      slice.mem->WriteColumn(core, w.row, c,
                             rt.def.schema.ColumnPtr(w.data.data(), c));
    }
  }
  if (!installs.empty() || !ctx.undo.empty()) {
    // Staged updates or in-place inserts/deletes: a commit record makes
    // the transaction's log records replayable.
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLogAppend);
    Exec(core, log_);
    logs_[core->core_id()]->LogCommit(core, txn_id);
  }
  // Crash after the commit record: durable only up to the flushed
  // prefix of the log.
  if (FaultCrash(fault::kCrashPostCommit)) {
    return Status::Aborted("injected crash: post_commit");
  }
  return Status::Ok();
}

}  // namespace imoltp::engine
