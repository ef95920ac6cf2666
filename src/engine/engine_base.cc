#include "engine/engine_base.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "storage/disk_heap_file.h"

namespace imoltp::engine {

EngineBase::EngineBase(mcsim::MachineSim* machine,
                       const EngineOptions& options)
    : machine_(machine),
      options_(options),
      spans_(&machine->config().cycle, machine->num_cores()) {
  logs_.reserve(machine_->num_cores());
  for (int i = 0; i < machine_->num_cores(); ++i) {
    logs_.push_back(
        std::make_unique<txn::LogManager>(&lsn_clock_,
                                          options_.log_buffer_bytes));
    logs_.back()->set_fault_injector(options_.fault_injector);
  }
  undo_logs_.resize(machine_->num_cores());
  if (options_.checkpoint.enabled) {
    ckpt_ = std::make_unique<txn::CheckpointManager>(options_.checkpoint);
  }
}

mcsim::CodeRegion EngineBase::DefineRegion(const RegionSpec& spec) {
  const mcsim::ModuleId module =
      machine_->modules().Register(spec.module, spec.engine_side);
  return machine_->code_space().Define(
      module, spec.total_bytes, spec.touched_bytes, spec.instructions,
      spec.mispredicts_per_kinstr, spec.cpi);
}

index::Key EngineBase::DefaultKeyOf(const storage::Schema& schema,
                                    storage::RowId r, uint64_t seed) {
  if (schema.num_columns() > 0 &&
      schema.column_type(0) == storage::ColumnType::kString) {
    // String tables key on the generated column-0 contents.
    uint8_t buf[256];
    storage::DefaultRowGenerator(schema, r, seed, buf);
    return index::Key::FromBytes(buf, storage::kStringBytes);
  }
  return index::Key::FromUint64(r);
}

index::Key EngineBase::KeyForRow(const TableDef& def, storage::RowId r) {
  if (def.key_of != nullptr) return def.key_of(def.schema, r, def.seed);
  return DefaultKeyOf(def.schema, r, def.seed);
}

index::IndexKind EngineBase::PrimaryIndexKind(const TableDef& def) const {
  index::IndexKind kind = default_index_kind(def);
  if (def.needs_ordered_index && kind == index::IndexKind::kHash) {
    kind = index::IndexKind::kBTreeCc;  // DBMS M's ordered alternative
  }
  return kind;
}

Status EngineBase::CreateDatabase(const std::vector<TableDef>& defs) {
  // Populate with simulation off: the paper attaches the profiler only
  // after loading and warm-up (Section 3, "Measurements").
  machine_->SetEnabled(false);
  mcsim::CoreSim* core = &machine_->core(0);

  const bool disk = disk_based();
  if (disk && bufferpool_ == nullptr) {
    bufferpool_ = std::make_unique<storage::BufferPool>(
        options_.bufferpool_frames, 8192);
  }

  const int slices = num_slices();
  tables_.clear();
  tables_.reserve(defs.size());

  for (const TableDef& def : defs) {
    TableRt rt;
    rt.def = def;
    rt.slices.resize(slices);
    for (int p = 0; p < slices; ++p) {
      Slice& slice = rt.slices[p];
      uint64_t lo = def.initial_rows * p / slices;
      uint64_t hi = def.initial_rows * (p + 1) / slices;
      if (def.replicated) {  // full copy on every partition
        lo = 0;
        hi = def.initial_rows;
      }
      slice.first_global_row = lo;
      slice.num_initial_rows = hi - lo;
      if (!def.no_primary_index) {
        slice.primary =
            index::CreateIndex(PrimaryIndexKind(def), def.key_bytes);
      }
      // Secondary indexes are ordered: promote a hash default.
      index::IndexKind sec_kind = default_index_kind(def);
      if (sec_kind == index::IndexKind::kHash) {
        sec_kind = index::IndexKind::kBTreeCc;
      }
      for (size_t i = 0; i < def.secondaries.size(); ++i) {
        slice.secondaries.push_back(index::CreateIndex(sec_kind, 8));
      }

      // A heap file starts empty and fills as population appends; an
      // in-memory table holds its initial rows from construction.
      if (disk) {
        slice.rows = std::make_unique<storage::DiskHeapFile>(
            def.name, bufferpool_.get(), next_file_id_++, def.schema);
      } else {
        storage::TableOptions topts;
        topts.generator = def.generator;
        topts.generator_seed = def.seed;
        topts.generator_row_offset = lo;
        if (def.nominal_bytes > 0 && def.initial_rows > 0) {
          topts.row_stride = static_cast<uint32_t>(
              def.nominal_bytes / def.initial_rows);
        }
        slice.rows = storage::CreateTable(def.name, def.schema,
                                          slice.num_initial_rows, topts);
      }
      std::vector<uint8_t> buf(def.schema.row_bytes());
      const storage::RowGenerator gen =
          def.generator ? def.generator : storage::DefaultRowGenerator;
      for (uint64_t r = lo; r < hi; ++r) {
        storage::RowId rid = r - lo;
        if (disk) {
          gen(def.schema, r, def.seed, buf.data());
          rid = slice.rows->Append(core, buf.data());
          if (rid == storage::kInvalidRow) {
            return Status::ResourceExhausted("buffer pool full");
          }
        }
        if (slice.primary != nullptr) {
          const Status s =
              slice.primary->Insert(core, KeyForRow(def, r), rid);
          if (!s.ok()) return s;
        }
        if (!slice.secondaries.empty()) {
          if (!disk) gen(def.schema, r, def.seed, buf.data());
          InsertSecondaries(core, rt, slice, buf.data(), rid);
        }
      }
    }
    tables_.push_back(std::move(rt));
  }

  if (ckpt_ != nullptr) {
    for (TableRt& rt : tables_) {
      for (Slice& slice : rt.slices) {
        // Initial population is regenerable (CreateDatabase rebuilds
        // it deterministically): checkpoints only carry the pages and
        // indexes that diverged from it.
        slice.rows->MarkClean();
        if (slice.primary != nullptr) slice.primary->MarkClean();
        for (auto& sec : slice.secondaries) sec->MarkClean();
      }
    }
    if (num_slices() == 1) {
      // WAL rule for fuzzy capture: worker 0's capture thread can
      // snapshot any worker's in-place effects, and only a worker's
      // own thread may touch its log — so the log device runs
      // synchronously (see LogManager::set_force).
      for (auto& log : logs_) log->set_force(true);
    }
  }

  machine_->SetEnabled(true);
  WarmCaches();
  return Status::Ok();
}

void EngineBase::WarmCaches() {
  // Stream every index path and row through the hierarchy once — the
  // paper runs the benchmark for 60 seconds before attaching VTune, long
  // enough for the steady-state cache contents to form. Databases that
  // fit in the LLC end up resident; larger ones end with the tail of the
  // scan resident, which random probes then evict either way.
  for (TableRt& rt : tables_) {
    for (size_t p = 0; p < rt.slices.size(); ++p) {
      Slice& slice = rt.slices[p];
      mcsim::CoreSim* core =
          &machine_->core(static_cast<int>(p) % machine_->num_cores());
      std::vector<uint8_t> buf(rt.def.schema.row_bytes());
      if (slice.primary == nullptr) continue;
      for (uint64_t r = slice.first_global_row;
           r < slice.first_global_row + slice.num_initial_rows; ++r) {
        uint64_t value = 0;
        if (!slice.primary->Lookup(core, KeyForRow(rt.def, r), &value)) {
          continue;
        }
        slice.rows->ReadRow(core, value, buf.data());
      }
    }
  }
}

void EngineBase::InsertSecondaries(mcsim::CoreSim* core, TableRt& rt,
                                   Slice& slice, const uint8_t* row,
                                   storage::RowId rid) {
  for (size_t i = 0; i < slice.secondaries.size(); ++i) {
    const index::Key key =
        rt.def.secondaries[i].key_of(rt.def.schema, row);
    slice.secondaries[i]->Insert(core, key, rid);
  }
}

void EngineBase::RemoveSecondaries(mcsim::CoreSim* core, TableRt& rt,
                                   Slice& slice, const uint8_t* row) {
  for (size_t i = 0; i < slice.secondaries.size(); ++i) {
    const index::Key key =
        rt.def.secondaries[i].key_of(rt.def.schema, row);
    slice.secondaries[i]->Remove(core, key);
  }
}

// ---------------------------------------------------------------------------
// The transaction lifecycle.
// ---------------------------------------------------------------------------

Status EngineBase::Execute(int worker, const TxnRequest& request,
                           const std::function<Status(TxnContext&)>& body) {
  mcsim::CoreSim* core = &machine_->core(worker);
  core->BeginTransaction();
  // Commit may leave the core in its own module (DBMS M); the caller's
  // module comes back when the transaction ends.
  mcsim::ScopedModule module(core, core->module());
  Txn txn{core, request, ++next_txn_};
  const Status s = Begin(txn);
  if (!s.ok()) return s;

  // Crash before any work: nothing is logged, and whatever Begin took
  // (locks, partitions, a snapshot) dies with the process.
  if (FaultCrash(fault::kCrashPreBody)) {
    return Status::Aborted("injected crash: pre_body");
  }

  CtxSlot slot;
  CtxBase* ctx = Open(&slot, txn);
  const Status result = Run(*ctx, txn, body);
  ctx->~CtxBase();
  return result;
}

namespace {

/// The body's context while an op hook is installed: runs the hook,
/// then forwards the operation.
class HookedContext final : public TxnContext {
 public:
  HookedContext(TxnContext& inner, const std::function<void()>& hook)
      : inner_(inner), hook_(hook) {}

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    hook_();
    return inner_.Probe(table, key, row);
  }
  Status Read(int table, storage::RowId row, uint8_t* out) override {
    hook_();
    return inner_.Read(table, row, out);
  }
  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    hook_();
    return inner_.Update(table, row, column, value);
  }
  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    hook_();
    return inner_.Insert(table, row, key, out_row);
  }
  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    hook_();
    return inner_.Delete(table, row, key);
  }
  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    hook_();
    return inner_.Scan(table, from, limit, rows);
  }
  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    hook_();
    return inner_.ScanSecondary(table, secondary, from, limit, rows);
  }
  mcsim::CoreSim* core() override { return inner_.core(); }

 private:
  TxnContext& inner_;
  const std::function<void()>& hook_;
};

}  // namespace

Status EngineBase::Run(CtxBase& ctx, const Txn& txn,
                       const std::function<Status(TxnContext&)>& body) {
  HookedContext hooked(ctx, op_hook_);
  Status s = op_hook_ ? body(hooked) : body(ctx);

  // Crash mid-commit: in-place changes stay dirty, locks stay held,
  // staged versions die with the process, and no commit (or command)
  // record exists, so recovery drops the transaction.
  if (s.ok() && FaultCrash(fault::kCrashMidCommit)) {
    return Status::Aborted("injected crash: mid_commit");
  }
  if (!s.ok()) {
    Abort(ctx);
    return s;
  }
  s = Commit(ctx);
  if (!s.ok()) return s;
  if (ctx.dirty) LogCommit(ctx, txn);

  // Crash after the commit record reached the log ring, before release:
  // the commit is durable only up to the flushed prefix of the log.
  if (FaultCrash(fault::kCrashPostCommit)) {
    return Status::Aborted("injected crash: post_commit");
  }
  Release(ctx);
  Epilogue(ctx);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The engine-neutral data work of a transaction context.
// ---------------------------------------------------------------------------

void EngineBase::CtxBase::Rollback() {
  // CLRs: redo-only compensation records, emitted when a checkpoint
  // may have captured the transaction's in-place writes. Recovery
  // replays them unconditionally, repeating this rollback.
  const bool clr = engine_->ckpt_logging() && engine_->logs_physical();
  for (auto it = undo.entries.rbegin(); it != undo.entries.rend(); ++it) {
    const UndoLog::Entry& u = *it;
    TableRt& rt = engine_->tables_[u.table];
    Slice& s = rt.slices[u.slice];
    const uint8_t* image = undo.image(u);
    switch (u.kind) {
      case UndoLog::Kind::kColumnImage:
        s.rows->WriteColumn(core_, u.row, u.column, image);
        if (clr) {
          Log(txn::LogOp::kUpdate, u.table, u.row,
              static_cast<int>(u.column), image, u.image_bytes, nullptr,
              nullptr, 0, /*clr=*/true);
        }
        break;
      case UndoLog::Kind::kInsertedRow:
        if (s.primary != nullptr) s.primary->Remove(core_, u.key);
        if (u.image_bytes != 0) {
          engine_->RemoveSecondaries(core_, rt, s, image);
        }
        s.rows->Delete(core_, u.row);
        if (clr) {
          Log(txn::LogOp::kDelete, u.table, u.row, -1, nullptr, 0, &u.key,
              image, u.image_bytes, /*clr=*/true);
        }
        break;
      case UndoLog::Kind::kDeletedRow: {
        // Resurrect the row (possibly at a fresh slot) and re-index it.
        const storage::RowId rid = s.rows->Append(core_, image);
        if (s.primary != nullptr) s.primary->Insert(core_, u.key, rid);
        engine_->InsertSecondaries(core_, rt, s, image, rid);
        if (clr) {
          Log(txn::LogOp::kInsert, u.table, rid, -1, image, u.image_bytes,
              &u.key, nullptr, 0, /*clr=*/true);
        }
        break;
      }
    }
  }
  undo.Clear();
}

Status EngineBase::CtxBase::Lookup(int table, const index::Key& key,
                                   storage::RowId* row) {
  const Slice& s = slice(table);
  uint64_t value = 0;
  if (s.primary == nullptr || !s.primary->Lookup(core_, key, &value)) {
    return Status::NotFound();
  }
  *row = value;
  return Status::Ok();
}

Status EngineBase::CtxBase::ScanIndex(int table, int secondary,
                                      const index::Key& from,
                                      uint64_t limit,
                                      std::vector<storage::RowId>* rows) {
  Slice& s = slice(table);
  if (secondary < 0 ||
      secondary >= static_cast<int>(s.secondaries.size())) {
    return Status::InvalidArgument("no such secondary index");
  }
  s.secondaries[secondary]->Scan(core_, from, limit, rows);
  return Status::Ok();
}

Status EngineBase::CtxBase::UpdateInPlace(int table, storage::RowId row,
                                          uint32_t column,
                                          const void* value) {
  // Before-image for undo: in-place writes must be reversible on abort.
  const storage::Schema& sch = schema(table);
  uint8_t* before = RowScratch(table);
  const Status s = ReadRow(table, row, before);
  if (!s.ok()) return s;
  undo.Push(UndoLog::Kind::kColumnImage, table, slice_, row, column,
            sch.ColumnPtr(before, column), sch.column_width(column),
            index::Key());
  if (!slice(table).rows->WriteColumn(core_, row, column, value)) {
    return Status::NotFound();
  }
  dirty = true;
  return Status::Ok();
}

Status EngineBase::CtxBase::AppendRow(int table, const uint8_t* row,
                                      storage::RowId* rid) {
  *rid = slice(table).rows->Append(core_, row);
  return *rid == storage::kInvalidRow
             ? Status::ResourceExhausted("buffer pool full")
             : Status::Ok();
}

Status EngineBase::CtxBase::InsertPrimaryKey(int table,
                                             const index::Key& key,
                                             storage::RowId rid) {
  index::Index* primary = slice(table).primary.get();
  if (primary == nullptr) return Status::Ok();
  const Status s = primary->Insert(core_, key, rid);
  return s.ok() ? s : DropAppended(table, rid, s);
}

Status EngineBase::CtxBase::Inserted(int table, storage::RowId rid,
                                     const index::Key& key,
                                     const uint8_t* row,
                                     storage::RowId* out_row) {
  undo.Push(UndoLog::Kind::kInsertedRow, table, slice_, rid, /*column=*/0,
            row, schema(table).row_bytes(), key);
  dirty = true;
  if (out_row != nullptr) *out_row = rid;
  return Status::Ok();
}

Status EngineBase::CtxBase::RemoveKeys(int table, const index::Key& key,
                                       const uint8_t* before) {
  Slice& s = slice(table);
  if (!s.primary->Remove(core_, key)) return Status::NotFound();
  engine_->RemoveSecondaries(core_, engine_->tables_[table], s, before);
  return Status::Ok();
}

void EngineBase::CtxBase::LogColumnUpdate(int table, storage::RowId row,
                                          uint32_t column,
                                          const void* value) {
  const UndoLog::Entry& u = undo.entries.back();
  Log(txn::LogOp::kUpdate, table, row, static_cast<int>(column), value,
      schema(table).column_width(column), nullptr, undo.image(u),
      u.image_bytes);
}

void EngineBase::CtxBase::LogRowUpdate(int table, storage::RowId row,
                                       const uint8_t* image,
                                       const uint8_t* before) {
  const uint32_t bytes = schema(table).row_bytes();
  Log(txn::LogOp::kUpdate, table, row, -1, image, bytes, nullptr, before,
      bytes);
}

void EngineBase::CtxBase::LogInsert(int table, storage::RowId rid,
                                    const uint8_t* row,
                                    const index::Key& key) {
  Log(txn::LogOp::kInsert, table, rid, -1, row, schema(table).row_bytes(),
      &key, nullptr, 0);
}

void EngineBase::CtxBase::LogDelete(int table, storage::RowId row,
                                    const index::Key& key,
                                    const uint8_t* before) {
  Log(txn::LogOp::kDelete, table, row, -1, nullptr, 0, &key, before,
      schema(table).row_bytes());
}

void EngineBase::CtxBase::Log(txn::LogOp op, int table, storage::RowId row,
                              int column, const void* payload,
                              uint32_t payload_bytes, const index::Key* key,
                              const void* before, uint32_t before_bytes,
                              bool clr) {
  const bool with_before = engine_->ckpt_logging() && before != nullptr;
  engine_->logs_[core_->core_id()]->Append(
      core_, op, txn_id_, static_cast<int16_t>(table), row,
      static_cast<int16_t>(column), payload, payload_bytes,
      key != nullptr ? key->data() : nullptr,
      key != nullptr ? key->size() : 0, static_cast<int16_t>(slice_),
      with_before ? before : nullptr, with_before ? before_bytes : 0, clr);
}

// ---------------------------------------------------------------------------
// Recovery: merged stable log + REDO replay.
// ---------------------------------------------------------------------------

uint64_t EngineBase::LogTruncationLsn() const {
  uint64_t lsn = 0;
  for (const auto& log : logs_) {
    lsn = std::max(lsn, log->truncation_lsn());
  }
  return lsn;
}

uint64_t EngineBase::AppendedLogRecords() const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += log->appended_records();
  return n;
}

std::vector<txn::LogRecord> EngineBase::StableLog() const {
  return MergedLog(/*flushed_only=*/false);
}

std::vector<txn::LogRecord> EngineBase::FlushedLog() const {
  return MergedLog(/*flushed_only=*/true);
}

uint64_t EngineBase::StableLogSize() const {
  return MergedLogSize(/*flushed_only=*/false);
}

void EngineBase::VisitStableLog(
    const std::function<void(const txn::LogRecord&)>& visit) const {
  VisitMergedLog(/*flushed_only=*/false, visit);
}

void EngineBase::VisitMergedLog(
    bool flushed_only,
    const std::function<void(const txn::LogRecord&)>& visit) const {
  // Per worker log: the index of its next record.
  std::vector<uint64_t> next_of(logs_.size(), 0);
  while (true) {
    size_t next = logs_.size();
    for (size_t w = 0; w < logs_.size(); ++w) {
      if (next_of[w] == MergedRecords(*logs_[w], flushed_only)) continue;
      if (next == logs_.size() ||
          logs_[w]->record(next_of[w]).lsn <
              logs_[next]->record(next_of[next]).lsn) {
        next = w;
      }
    }
    if (next == logs_.size()) break;
    visit(logs_[next]->record(next_of[next]++));
  }
}

uint64_t EngineBase::MergedLogSize(bool flushed_only) const {
  uint64_t n = 0;
  for (const auto& log : logs_) n += MergedRecords(*log, flushed_only);
  return n;
}

std::vector<txn::LogRecord> EngineBase::MergedLog(bool flushed_only) const {
  std::vector<txn::LogRecord> merged;
  merged.reserve(MergedLogSize(flushed_only));
  VisitMergedLog(flushed_only, [&merged](const txn::LogRecord& rec) {
    merged.push_back(rec);
  });
  return merged;
}

Status EngineBase::Replay(const std::vector<txn::LogRecord>& log) {
  return Recover({}, log, /*log_truncation_lsn=*/0, nullptr);
}

Status EngineBase::RedoPass(const std::vector<txn::LogRecord>& log,
                            uint64_t from_lsn, txn::RecoveryStats* stats) {
  // A torn record (bad checksum on the device) ends the usable log:
  // recovery scans forward and stops at the first record that fails
  // verification, exactly like a real ARIES analysis pass.
  const size_t usable = static_cast<size_t>(
      std::find_if(log.begin(), log.end(),
                   [](const txn::LogRecord& r) { return r.torn; }) -
      log.begin());

  // Analysis pass: which transactions committed, and at which LSN?
  std::unordered_map<uint64_t, uint64_t> commit_lsn;
  for (size_t i = 0; i < usable; ++i) {
    if (log[i].op == txn::LogOp::kCommit) {
      commit_lsn[log[i].txn_id] = log[i].lsn;
    }
  }

  // REDO pass, in LSN order, committed transactions only. Recovery runs
  // outside any measurement window (the caller disabled the machine).
  mcsim::CoreSim* core = &machine_->core(0);
  Status result = Status::Ok();
  for (size_t i = 0; i < usable; ++i) {
    const txn::LogRecord& rec = log[i];
    const auto commit = commit_lsn.find(rec.txn_id);
    // Skip records whose effect landed before `from_lsn`. Engines
    // apply a change before logging it, except staged (MVCC) updates,
    // which reach the table at commit.
    const bool staged = !updates_in_place() && !rec.clr &&
                        rec.op == txn::LogOp::kUpdate &&
                        commit != commit_lsn.end();
    if ((staged ? commit->second : rec.lsn) < from_lsn) continue;
    if (rec.op == txn::LogOp::kCommit || rec.op == txn::LogOp::kAbort ||
        rec.op == txn::LogOp::kCommand ||
        rec.op == txn::LogOp::kCheckpointBegin ||
        rec.op == txn::LogOp::kCheckpointEnd) {
      continue;  // kCommand is logical; physical REDO cannot replay it
    }
    // CLRs replay unconditionally: they repeat a rollback that already
    // happened (checkpoint-enabled logs only).
    if (!rec.clr && commit == commit_lsn.end()) continue;
    if (rec.table < 0 ||
        rec.table >= static_cast<int16_t>(tables_.size())) {
      result = Status::Internal("log record references unknown table");
      break;
    }
    ++stats->replayed_records;
    TableRt& rt = tables_[rec.table];
    Slice& slice = SliceAt(rt, rec.slice);
    switch (rec.op) {
      case txn::LogOp::kUpdate:
        if (rec.column >= 0) {
          slice.rows->WriteColumn(core, rec.row, rec.column,
                                  rec.payload().data());
        } else {
          slice.rows->WriteRow(core, rec.row, rec.payload().data());
        }
        break;
      case txn::LogOp::kInsert: {
        // Placement replay: the record's RowId is the physical position
        // the live run assigned; later records reference it, so the
        // replayed row must land exactly there.
        slice.rows->RestoreRow(core, rec.row, rec.payload().data(),
                               /*present=*/true);
        if (slice.primary != nullptr && !rec.key().empty()) {
          slice.primary->Remove(core, RecordKey(rec));  // idempotent
          result = slice.primary->Insert(core, RecordKey(rec), rec.row);
        }
        InsertSecondaries(core, rt, slice, rec.payload().data(), rec.row);
        break;
      }
      case txn::LogOp::kDelete: {
        if (!slice.secondaries.empty()) {
          // Prefer the logged before-image (checkpoint-enabled logs);
          // fall back to the current row contents.
          if (rec.before().size() >= rt.def.schema.row_bytes()) {
            RemoveSecondaries(core, rt, slice, rec.before().data());
          } else {
            std::vector<uint8_t> image(rt.def.schema.row_bytes());
            if (slice.rows->ReadRow(core, rec.row, image.data())) {
              RemoveSecondaries(core, rt, slice, image.data());
            }
          }
        }
        if (slice.primary != nullptr && !rec.key().empty()) {
          slice.primary->Remove(core, RecordKey(rec));
        }
        slice.rows->Delete(core, rec.row);
        break;
      }
      default:
        break;
    }
    if (!result.ok()) break;
  }
  return result;
}

}  // namespace imoltp::engine
