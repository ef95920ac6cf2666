#include "engine/partitioned_engine.h"

#include <array>
#include <cstddef>
#include <cstring>

namespace imoltp::engine {

namespace {

/// The command-log payload of `request`: its fields at their struct
/// offsets in a zero-filled image of sizeof(TxnRequest) bytes. Copying
/// the struct itself would log its padding, which holds whatever the
/// caller's stack held, so same-seed runs would log different bytes.
std::array<uint8_t, sizeof(TxnRequest)> CommandImage(
    const TxnRequest& request) {
  static_assert(sizeof(TxnRequest) == 32, "copy every TxnRequest field");
  std::array<uint8_t, sizeof(TxnRequest)> image{};
  auto put = [&](size_t offset, const auto& field) {
    std::memcpy(image.data() + offset, &field, sizeof(field));
  };
  put(offsetof(TxnRequest, type), request.type);
  put(offsetof(TxnRequest, partition_key), request.partition_key);
  put(offsetof(TxnRequest, key_space), request.key_space);
  put(offsetof(TxnRequest, statements), request.statements);
  return image;
}

}  // namespace

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
class PartitionedEngine::Ctx final : public EngineBase::CtxBase {
 public:
  Ctx(PartitionedEngine* e, mcsim::CoreSim* core, uint64_t txn_id,
      int slice, mcsim::ModuleId op_module)
      : CtxBase(e, core, txn_id, slice), e_(e), op_module_(op_module) {}

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    const Step step(e_, core_, SpanKind::kIndexProbe,
                    e_->compiled_ ? op_module_ : e_->index_op_.module);
    IndexOpCode(table);
    return Lookup(table, key, row);
  }

  Status Read(int table, storage::RowId row, uint8_t* out) override {
    const Step step(e_, core_, SpanKind::kStorageAccess, op_module_);
    OpCode(table);
    return ReadRow(table, row, out);
  }

  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    mcsim::ScopedModule mod(core_, op_module_);
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      OpCode(table);
      const Status s = UpdateInPlace(table, row, column, value);
      if (!s.ok()) return s;
    }
    // VoltDB command logging logs per transaction, not per update;
    // HyPer writes a redo record per update.
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      LogColumnUpdate(table, row, column, value);
    }
    return Status::Ok();
  }

  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    mcsim::ScopedModule mod(core_, op_module_);
    storage::RowId rid = storage::kInvalidRow;
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      OpCode(table);
      const Status s = AppendRow(table, row, &rid);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kIndexProbe);
      if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
      const Status s = InsertPrimaryKey(table, key, rid);
      if (!s.ok()) return s;
      InsertSecondaryKeys(table, row, rid);
    }
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      LogInsert(table, rid, row, key);
    }
    return Inserted(table, rid, key, row, out_row);
  }

  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    mcsim::ScopedModule mod(core_, op_module_);
    uint8_t* before = RowScratch(table);
    Status s;
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      OpCode(table);
      s = ReadRow(table, row, before);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kIndexProbe);
      if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
      s = RemoveKeys(table, key, before);
      if (!s.ok()) return s;
    }
    {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kStorageAccess);
      s = DeleteRow(table, row);
      if (!s.ok()) return s;
    }
    if (e_->compiled_) {
      obs::ScopedSpan span(&e_->spans_, core_, SpanKind::kLogAppend);
      e_->Exec(core_, e_->log_);
      LogDelete(table, row, key, before);
    }
    Deleted(table, row, key, before);
    return Status::Ok();
  }

  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    const Step step(e_, core_, SpanKind::kIndexProbe, op_module_);
    IndexOpCode(table);
    return ScanPrimary(table, from, limit, rows);
  }

  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    const Step step(e_, core_, SpanKind::kIndexProbe, op_module_);
    IndexOpCode(table);
    return ScanIndex(table, secondary, from, limit, rows);
  }

 private:
  /// Per-operation code: VoltDB interprets an executor operator; HyPer's
  /// compiled code adds only a few straight-line instructions. Value
  /// handling (deserialize/copy/validate) scales with the row bytes —
  /// interpreted engines pay ~12 instructions per byte, compiled code
  /// ~3 (it operates on the storage format in place).
  void OpCode(int table) {
    const uint32_t row_bytes = schema(table).row_bytes();
    if (e_->compiled_) {
      core_->Retire(e_->hyper_profile_.per_op_instructions +
                    row_bytes * 2);
    } else {
      e_->Exec(core_, e_->ee_op_);
      core_->Retire(row_bytes * 6);
    }
  }

  /// OpCode plus VoltDB's index executor.
  void IndexOpCode(int table) {
    OpCode(table);
    if (!e_->compiled_) e_->Exec(core_, e_->index_op_);
  }

  PartitionedEngine* e_;
  mcsim::ModuleId op_module_;
};

Status PartitionedEngine::Begin(Txn& txn) {
  const int worker = txn.core->core_id();
  const int home = HomeOf(txn.request);
  Exec(txn.core, dispatch_);
  obs::ScopedSpan span(&spans_, txn.core, SpanKind::kLockAcquire);
  if (options_.single_site) {
    return partitions_.EnterSinglePartition(txn.core, worker, home);
  }
  // Multi-partition coordination path (Section 7 ablation).
  Exec(txn.core, multi_site_);
  return partitions_.EnterMultiPartition(txn.core, worker, {home});
}

EngineBase::CtxBase* PartitionedEngine::Open(CtxSlot* slot, const Txn& txn) {
  // HyPer compiles a transaction type on its first dispatch.
  const mcsim::CodeRegion region =
      compiled_ ? CompiledRegion(txn.request.type, txn.request.statements)
                : ee_op_;
  Ctx* ctx = slot->Emplace<Ctx>(this, txn.core, txn.id, HomeOf(txn.request),
                                region.module);
  if (compiled_) Exec(txn.core, region);
  return ctx;
}

void PartitionedEngine::Abort(CtxBase& ctx) {
  // Failed procedure: roll back its in-place changes. VoltDB's command
  // log has no abort record.
  mcsim::CoreSim* core = ctx.core();
  LeaveMultiPartition(core);
  {
    obs::ScopedSpan span(&spans_, core, SpanKind::kStorageAccess);
    ctx.Rollback();
  }
  if (compiled_ && ctx.dirty) {
    obs::ScopedSpan span(&spans_, core, SpanKind::kLogAppend);
    logs_[core->core_id()]->LogAbort(core, ctx.txn_id());
  }
}

Status PartitionedEngine::Commit(CtxBase& ctx) {
  LeaveMultiPartition(ctx.core());
  Exec(ctx.core(), commit_);
  return Status::Ok();
}

void PartitionedEngine::LogCommit(CtxBase& ctx, const Txn& txn) {
  mcsim::CoreSim* core = ctx.core();
  obs::ScopedSpan span(&spans_, core, SpanKind::kLogAppend);
  if (compiled_) {
    logs_[core->core_id()]->LogCommit(core, ctx.txn_id());
    return;
  }
  // Command logging: one record per transaction invocation.
  Exec(core, log_);
  const auto command = CommandImage(txn.request);
  logs_[core->core_id()]->Append(core, txn::LogOp::kCommand, ctx.txn_id(),
                                 -1, 0, -1, command.data(),
                                 static_cast<uint32_t>(command.size()));
}

}  // namespace imoltp::engine
