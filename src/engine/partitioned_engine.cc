#include "engine/partitioned_engine.h"

#include "obs/span.h"

namespace imoltp::engine {

PartitionedEngine::PartitionedEngine(EngineKind kind,
                                     mcsim::MachineSim* machine,
                                     const EngineOptions& options)
    : EngineBase(machine, options),
      kind_(kind),
      compiled_(kind == EngineKind::kHyPer),
      partitions_(options.num_partitions) {
  if (compiled_) {
    dispatch_ = DefineRegion(hyper_profile_.dispatch);
    commit_ = DefineRegion(hyper_profile_.commit);
    log_ = DefineRegion(hyper_profile_.log);
  } else {
    dispatch_ = DefineRegion(volt_profile_.dispatch);
    ee_op_ = DefineRegion(volt_profile_.ee_op);
    index_op_ = DefineRegion(volt_profile_.index_op);
    commit_ = DefineRegion(volt_profile_.commit);
    log_ = DefineRegion(volt_profile_.cmd_log);
    multi_site_ = DefineRegion(volt_profile_.multi_site);
  }
}

mcsim::CodeRegion PartitionedEngine::CompiledRegion(int txn_type,
                                                    int statements) {
  std::lock_guard<std::mutex> guard(compiled_mu_);
  auto it = compiled_txns_.find(txn_type);
  if (it == compiled_txns_.end()) {
    // Compile on first use: code size and straight-line instruction
    // count grow with the procedure's statement count.
    RegionSpec spec = hyper_profile_.compiled_txn;
    // Distinct module name per procedure: each type is its own compiled
    // code object, and duplicate names would collide in the report's
    // module_breakdown object keys. ModuleRegistry copies the name, so
    // the local only has to outlive DefineRegion.
    const std::string name =
        std::string(spec.module) + "#" + std::to_string(txn_type);
    spec.module = name.c_str();
    const uint32_t extra = statements > 1 ? statements - 1 : 0;
    spec.total_bytes += extra * hyper_profile_.per_statement_bytes;
    spec.touched_bytes += extra * hyper_profile_.per_statement_bytes;
    spec.instructions += extra * hyper_profile_.per_statement_instructions;
    it = compiled_txns_.emplace(txn_type, DefineRegion(spec)).first;
  }
  return it->second;
}

/// Stored-procedure context: direct in-memory table and index access, no
/// locks (serial partition execution guarantees isolation).
class PartitionedEngine::Ctx final : public TxnContext {
 public:
  Ctx(PartitionedEngine* e, mcsim::CoreSim* core, uint64_t txn_id,
      int slice, mcsim::ModuleId op_module)
      : e_(e),
        core_(core),
        txn_id_(txn_id),
        slice_(slice),
        op_module_(op_module) {}

  mcsim::CoreSim* core() override { return core_; }

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(
        core_, e_->compiled_ ? op_module_ : e_->index_op_.module);
    OpCode(table);
    if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
    auto& slice = e_->tables_[table].slices[slice_];
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
    mcsim::ScopedModule mod(core_, op_module_);
    OpCode(table);
    auto& slice = e_->tables_[table].slices[slice_];
    if (!slice.mem->ReadRow(core_, row, out)) return Status::NotFound();
    return Status::Ok();
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    mcsim::ScopedModule mod(core_, op_module_);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[slice_];
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      OpCode(table);
      // Before-image for rollback of failed procedures.
      std::vector<uint8_t> before(rt.def.schema.row_bytes());
      if (!slice.mem->ReadRow(core_, row, before.data())) {
        return Status::NotFound();
      }
      EngineBase::UndoEntry u;
      u.kind = EngineBase::UndoEntry::Kind::kColumnImage;
      u.table = table;
      u.slice = slice_;
      u.row = row;
      u.column = column;
      u.image.assign(rt.def.schema.ColumnPtr(before.data(), column),
                     rt.def.schema.ColumnPtr(before.data(), column) +
                         rt.def.schema.column_width(column));
      undo.push_back(std::move(u));
      slice.mem->WriteColumn(core_, row, column, value);
    }
    // VoltDB command logging logs per transaction, not per update;
    // HyPer writes a redo record per update.
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      const auto& before_img = undo.back().image;
      e_->logs_[core_->core_id()]->LogUpdate(
          core_, txn_id_, static_cast<int16_t>(table), row,
          static_cast<int16_t>(column), value,
          rt.def.schema.column_width(column),
          static_cast<int16_t>(slice_),
          e_->ckpt_logging() ? before_img.data() : nullptr,
          e_->ckpt_logging()
              ? static_cast<uint32_t>(before_img.size())
              : 0);
    }
    dirty = true;
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    mcsim::ScopedModule mod(core_, op_module_);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[slice_];
    storage::RowId rid;
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      OpCode(table);
      rid = slice.mem->Append(core_, row);
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
      if (slice.primary != nullptr) {
        const Status s = slice.primary->Insert(core_, key, rid);
        if (!s.ok()) return s;
      }
      e_->InsertSecondaries(core_, rt, slice, row, rid);
    }
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      e_->logs_[core_->core_id()]->Append(
          core_, txn::LogOp::kInsert, txn_id_,
          static_cast<int16_t>(table), rid, -1, row,
          rt.def.schema.row_bytes(), key.data(), key.size(),
          static_cast<int16_t>(slice_));
    }
    EngineBase::UndoEntry u;
    u.kind = EngineBase::UndoEntry::Kind::kInsertedRow;
    u.table = table;
    u.slice = slice_;
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
    mcsim::ScopedModule mod(core_, op_module_);
    auto& rt = e_->tables_[table];
    auto& slice = rt.slices[slice_];
    std::vector<uint8_t> before(rt.def.schema.row_bytes());
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kStorageAccess);
      OpCode(table);
      if (!slice.mem->ReadRow(core_, row, before.data())) {
        return Status::NotFound();
      }
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kIndexProbe);
      if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
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
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_,
                           obs::SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      e_->logs_[core_->core_id()]->Append(
          core_, txn::LogOp::kDelete, txn_id_,
          static_cast<int16_t>(table), row, -1, nullptr, 0, key.data(),
          key.size(), static_cast<int16_t>(slice_),
          e_->ckpt_logging() ? before.data() : nullptr,
          e_->ckpt_logging() ? rt.def.schema.row_bytes() : 0);
    }
    EngineBase::UndoEntry u;
    u.kind = EngineBase::UndoEntry::Kind::kDeletedRow;
    u.table = table;
    u.slice = slice_;
    u.row = row;
    u.image = std::move(before);
    u.key = key;
    undo.push_back(std::move(u));
    dirty = true;
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, op_module_);
    OpCode(table);
    if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
    auto& slice = e_->tables_[table].slices[slice_];
    slice.primary->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    obs::ScopedSpan span(&e_->spans_, core_,
                         obs::SpanKind::kIndexProbe);
    mcsim::ScopedModule mod(core_, op_module_);
    OpCode(table);
    if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
    auto& slice = e_->tables_[table].slices[slice_];
    if (secondary < 0 ||
        secondary >= static_cast<int>(slice.secondaries.size())) {
      return Status::InvalidArgument("no such secondary index");
    }
    slice.secondaries[secondary]->Scan(core_, from, limit, rows);
    return Status::Ok();
  }

 private:
  /// Per-operation code: VoltDB interprets an executor operator; HyPer's
  /// compiled code adds only a few straight-line instructions. Value
  /// handling (deserialize/copy/validate) scales with the row bytes —
  /// interpreted engines pay ~12 instructions per byte, compiled code
  /// ~3 (it operates on the storage format in place).
  void OpCode(int table) {
    const uint32_t row_bytes =
        e_->tables_[table].def.schema.row_bytes();
    if (e_->compiled_) {
      core_->Retire(e_->hyper_profile_.per_op_instructions +
                    row_bytes * 2);
    } else {
      e_->Exec(core_, e_->ee_op_);
      core_->Retire(row_bytes * 6);
    }
  }

  PartitionedEngine* e_;
  mcsim::CoreSim* core_;
  uint64_t txn_id_;
  int slice_;
  mcsim::ModuleId op_module_;

 public:
  bool dirty = false;  // any update/insert/delete ran
  std::vector<EngineBase::UndoEntry> undo;
};

Status PartitionedEngine::Execute(
    int worker, const TxnRequest& request,
    const std::function<Status(TxnContext&)>& body) {
  mcsim::CoreSim* core = &machine_->core(worker);
  core->BeginTransaction();
  const uint64_t txn_id = ++next_txn_;

  const int home = partitions_.PartitionOf(request.partition_key,
                                           request.key_space);
  Exec(core, dispatch_);

  if (options_.single_site) {
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLockAcquire);
    const Status s = partitions_.EnterSinglePartition(core, worker, home);
    if (!s.ok()) return s;
  } else {
    // Multi-partition coordination path (Section 7 ablation).
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLockAcquire);
    Exec(core, multi_site_);
    const Status s =
        partitions_.EnterMultiPartition(core, worker, {home});
    if (!s.ok()) return s;
  }

  // Crash before any work: the partition executor dies idle.
  if (FaultCrash(fault::kCrashPreBody)) {
    return Status::Aborted("injected crash: pre_body");
  }

  mcsim::CodeRegion compiled_region;
  if (compiled_) {
    compiled_region = CompiledRegion(request.type, request.statements);
  }
  const mcsim::ModuleId op_module =
      compiled_ ? compiled_region.module : ee_op_.module;
  Ctx ctx(this, core, txn_id, home, op_module);
  if (compiled_) Exec(core, compiled_region);
  Status s = body(ctx);

  // Crash mid-commit: in-place changes stay dirty with no commit (or
  // command) record, so recovery drops the transaction.
  if (s.ok() && FaultCrash(fault::kCrashMidCommit)) {
    return Status::Aborted("injected crash: mid_commit");
  }

  if (!options_.single_site) {
    partitions_.ReleaseMultiPartition(core, worker);
  }
  if (!s.ok()) {
    // Failed procedure: roll back its in-place changes.
    {
      obs::ScopedSpan span(&spans_, core,
                           obs::SpanKind::kStorageAccess);
      ApplyUndo(core, ctx.undo, logs_[core->core_id()].get(), txn_id);
    }
    if (compiled_ && ctx.dirty) {
      obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLogAppend);
      logs_[core->core_id()]->LogAbort(core, txn_id);
    }
    return s;
  }

  Exec(core, commit_);
  if (ctx.dirty) {
    obs::ScopedSpan span(&spans_, core, obs::SpanKind::kLogAppend);
    if (!compiled_) {
      // Command logging: one record per transaction invocation.
      Exec(core, log_);
      logs_[core->core_id()]->Append(core, txn::LogOp::kCommand, txn_id,
                                     -1, 0, -1, &request,
                                     sizeof(request));
    } else {
      logs_[core->core_id()]->LogCommit(core, txn_id);
    }
  }
  // Crash after the commit/command record hit the log ring.
  if (FaultCrash(fault::kCrashPostCommit)) {
    return Status::Aborted("injected crash: post_commit");
  }
  return Status::Ok();
}

}  // namespace imoltp::engine
