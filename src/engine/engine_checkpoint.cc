// Fuzzy checkpoint capture and ARIES-style recovery for EngineBase
// (docs/robustness.md, "Checkpointing & fuzzy recovery").
//
// Capture protocols:
//  - Partitioned engines (num_slices() > 1): worker 0 opens the
//    checkpoint on its cadence; each worker then captures ALL tables'
//    slice of its own partition atomically at one of its transaction
//    boundaries (transaction-consistent per partition under
//    single-site execution). The last partition to contribute seals
//    the checkpoint.
//  - Non-partitioned engines: worker 0 walks a capture plan (the dirty
//    pages at checkpoint begin) a few pages per transaction tick while
//    the other workers keep running — a genuinely fuzzy snapshot.
//    Before-images + CLRs in the log make it recoverable.
//
// The WAL rule: a captured page may hold effects of log records still
// in the asynchronous ring, so capture flushes the worker's own log
// first (partitioned), or the log runs in force-at-append mode
// (non-partitioned, where any worker's in-flight effects can land in a
// page the capturing worker copies).

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "engine/engine_base.h"

namespace imoltp::engine {

void EngineBase::CaptureSliceMeta(mcsim::CoreSim* core, int table,
                                  int slice_idx,
                                  txn::CheckpointSliceImage* out) {
  (void)core;
  Slice& slice = tables_[table].slices[slice_idx];
  out->table = static_cast<int16_t>(table);
  out->slice = static_cast<int16_t>(slice_idx);
  // Image every index that diverged from the population. Engines log a
  // mutation after applying it, so a mutation missing from the image
  // has its record at or after the checkpoint's begin LSN and is redone.
  auto capture = [out](int16_t target, const index::Index& idx) {
    if (!idx.dirty()) return;
    txn::CheckpointIndexImage image;
    image.target = target;
    idx.ForEach([&image](const index::Key& key, uint64_t value) {
      image.entries.emplace_back(key, value);
    });
    out->indexes.push_back(std::move(image));
  };
  if (slice.primary != nullptr) capture(-1, *slice.primary);
  for (size_t i = 0; i < slice.secondaries.size(); ++i) {
    capture(static_cast<int16_t>(i), *slice.secondaries[i]);
  }
}

txn::CheckpointPage EngineBase::CapturePage(mcsim::CoreSim* core,
                                            int table, int slice_idx,
                                            uint64_t page_no) {
  TableRt& rt = tables_[table];
  Slice& slice = rt.slices[slice_idx];
  txn::CheckpointPage pg;
  pg.table = static_cast<int16_t>(table);
  pg.slice = static_cast<int16_t>(slice_idx);
  pg.page_no = page_no;
  pg.row_bytes = rt.def.schema.row_bytes();
  pg.rids = slice.rows->PageRows(core, page_no);
  pg.present.assign(pg.rids.size(), 0);
  pg.images.assign(pg.rids.size() * pg.row_bytes, 0);
  std::vector<uint8_t> buf(pg.row_bytes);
  for (size_t i = 0; i < pg.rids.size(); ++i) {
    if (slice.rows->ReadRow(core, pg.rids[i], buf.data())) {
      pg.present[i] = 1;
      std::memcpy(pg.images.data() + i * pg.row_bytes, buf.data(),
                  pg.row_bytes);
    }
  }
  pg.Seal();
  return pg;
}

void EngineBase::BeginCheckpoint(int worker) {
  mcsim::CoreSim* core = &machine_->core(worker);
  txn::CheckpointImage& img = ckpt_->Begin(0);
  img.begin_lsn = logs_[worker]->Append(
      core, txn::LogOp::kCheckpointBegin, 0, -1, img.id, -1, nullptr, 0);
  logs_[worker]->FlushAll();
  if (num_slices() > 1) {
    slice_captured_.assign(static_cast<size_t>(num_slices()), 0);
    return;
  }
  // Non-partitioned: freeze the capture plan now. Pages dirtied after
  // this instant carry before-images in the retained log (begin_lsn
  // precedes them), so the fuzzy copy stays recoverable.
  capture_plan_.clear();
  capture_next_ = 0;
  img.slices.clear();
  img.slices.reserve(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    txn::CheckpointSliceImage si;
    CaptureSliceMeta(core, static_cast<int>(t), 0, &si);
    img.slices.push_back(std::move(si));
    for (uint64_t p : tables_[t].slices[0].rows->DirtyPages()) {
      capture_plan_.push_back({static_cast<int>(t), p});
    }
  }
}

void EngineBase::FinishCheckpoint(int worker) {
  mcsim::CoreSim* core = &machine_->core(worker);
  txn::CheckpointImage* pending = ckpt_->pending();
  const uint64_t begin_lsn = pending->begin_lsn;
  uint8_t payload[8];
  std::memcpy(payload, &begin_lsn, sizeof(payload));
  const uint64_t end_lsn =
      logs_[worker]->Append(core, txn::LogOp::kCheckpointEnd, 0, -1,
                            pending->id, -1, payload, sizeof(payload));
  logs_[worker]->FlushAll();
  const uint64_t anchor = ckpt_->Complete(end_lsn);
  ++ckpt_->stats().truncations;
  // Publish the anchor; every other worker truncates its own log on
  // its next tick.
  truncate_anchor_ = anchor;
  const uint64_t before = logs_[worker]->truncated_records();
  logs_[worker]->Truncate(anchor);
  ckpt_->stats().truncated_records +=
      logs_[worker]->truncated_records() - before;
}

void EngineBase::CapturePartition(int worker,
                                  txn::CheckpointImage* pending) {
  mcsim::CoreSim* core = &machine_->core(worker);
  for (size_t t = 0; t < tables_.size(); ++t) {
    TableRt& rt = tables_[t];
    if (worker >= static_cast<int>(rt.slices.size())) continue;
    txn::CheckpointSliceImage si;
    CaptureSliceMeta(core, static_cast<int>(t), worker, &si);
    const std::vector<uint64_t> pages = rt.slices[worker].rows->DirtyPages();
    si.pages.reserve(pages.size());
    for (uint64_t p : pages) {
      si.pages.push_back(CapturePage(core, static_cast<int>(t), worker, p));
    }
    pending->slices.push_back(std::move(si));
  }
}

void EngineBase::CaptureStep(mcsim::CoreSim* core,
                             txn::CheckpointImage* pending) {
  const int step = std::max(1, ckpt_->policy().pages_per_step);
  for (int i = 0;
       i < step && capture_next_ < capture_plan_.size(); ++i) {
    const CaptureUnit& u = capture_plan_[capture_next_++];
    pending->slices[u.table].pages.push_back(
        CapturePage(core, u.table, 0, u.page_no));
  }
}

void EngineBase::CheckpointTick(int worker) {
  if (ckpt_ == nullptr || tables_.empty()) return;
  if (worker < 0 || worker >= static_cast<int>(logs_.size())) return;

  // Deferred truncation: adopt the last completed checkpoint's anchor
  // on this worker's own log.
  if (truncate_anchor_ > logs_[worker]->truncation_lsn()) {
    const uint64_t before = logs_[worker]->truncated_records();
    logs_[worker]->Truncate(truncate_anchor_);
    ckpt_->stats().truncated_records +=
        logs_[worker]->truncated_records() - before;
  }

  const uint64_t every =
      std::max<uint64_t>(1, ckpt_->policy().every_n_ticks);

  if (num_slices() > 1) {
    if (worker == 0) {
      ++ticks_;
      if (ckpt_->pending() == nullptr && ticks_ % every == 0) {
        BeginCheckpoint(0);
      }
    }
    txn::CheckpointImage* pending = ckpt_->pending();
    if (pending != nullptr &&
        worker < static_cast<int>(slice_captured_.size()) &&
        slice_captured_[worker] == 0) {
      // WAL rule: this partition's in-ring records must be durable
      // before its pages are.
      logs_[worker]->FlushAll();
      CapturePartition(worker, pending);
      slice_captured_[worker] = 1;
      const bool all_captured =
          std::all_of(slice_captured_.begin(), slice_captured_.end(),
                      [](uint8_t c) { return c != 0; });
      if (all_captured) FinishCheckpoint(worker);
    }
    return;
  }

  // Non-partitioned: worker 0 drives begin/capture/finish. The log
  // runs force-at-append (set in CreateDatabase), so the WAL rule
  // holds for pages that caught other workers' in-flight writes.
  if (worker != 0) return;
  ++ticks_;
  txn::CheckpointImage* pending = ckpt_->pending();
  if (pending == nullptr) {
    if (ticks_ % every == 0) BeginCheckpoint(0);
    return;
  }
  CaptureStep(&machine_->core(0), pending);
  if (capture_next_ >= capture_plan_.size()) FinishCheckpoint(0);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void EngineBase::RestorePage(mcsim::CoreSim* core,
                             const txn::CheckpointPage& page,
                             txn::RecoveryStats* stats) {
  if (page.table < 0 ||
      page.table >= static_cast<int16_t>(tables_.size())) {
    return;
  }
  TableRt& rt = tables_[page.table];
  if (page.row_bytes != rt.def.schema.row_bytes()) return;
  Slice& slice = SliceAt(rt, page.slice);
  for (size_t i = 0; i < page.rids.size(); ++i) {
    const bool present = i < page.present.size() && page.present[i] != 0;
    slice.rows->RestoreRow(core, page.rids[i],
                           page.images.data() + i * page.row_bytes, present);
  }
  ++stats->restored_pages;
  stats->restored_bytes += page.images.size();
}

void EngineBase::RestoreIndex(mcsim::CoreSim* core, Slice& slice,
                              const txn::CheckpointIndexImage& image,
                              txn::RecoveryStats* stats) {
  index::Index* idx = nullptr;
  if (image.target < 0) {
    idx = slice.primary.get();
  } else if (image.target <
             static_cast<int16_t>(slice.secondaries.size())) {
    idx = slice.secondaries[image.target].get();
  }
  if (idx == nullptr) return;
  std::vector<index::Key> fresh;
  idx->ForEach(
      [&fresh](const index::Key& key, uint64_t) { fresh.push_back(key); });
  for (const index::Key& key : fresh) idx->Remove(core, key);
  for (const auto& [key, value] : image.entries) {
    idx->Insert(core, key, value);
  }
  stats->index_entries += image.entries.size();
}

Status EngineBase::Recover(const std::vector<txn::CheckpointImage>& device,
                           const std::vector<txn::LogRecord>& log,
                           uint64_t log_truncation_lsn,
                           txn::RecoveryStats* stats) {
  txn::RecoveryStats local;
  if (stats == nullptr) stats = &local;
  stats->truncation_lsn = log_truncation_lsn;

  const txn::CheckpointImage* ckpt =
      txn::SelectRecoverable(device, stats);
  if (ckpt == nullptr) {
    if (log_truncation_lsn > 0) {
      // The log's prefix is gone and no checkpoint survives to stand
      // in for it. Nothing sound can be reconstructed.
      return Status::Internal(
          "log truncated to a checkpoint anchor but no complete, "
          "checksum-clean checkpoint is available");
    }
    machine_->SetEnabled(false);
    const Status s = RedoPass(log, /*from_lsn=*/0, stats);
    machine_->SetEnabled(true);
    return s;
  }
  stats->used_checkpoint = true;
  stats->checkpoint_id = ckpt->id;

  machine_->SetEnabled(false);
  mcsim::CoreSim* core = &machine_->core(0);

  // 1. Restore captured pages and make every imaged index equal to its
  // image; indexes the checkpoint did not image are still exactly as
  // population left them.
  for (const txn::CheckpointSliceImage& si : ckpt->slices) {
    if (si.table < 0 ||
        si.table >= static_cast<int16_t>(tables_.size())) {
      continue;
    }
    Slice& slice = SliceAt(tables_[si.table], si.slice);
    for (const txn::CheckpointPage& pg : si.pages) {
      RestorePage(core, pg, stats);
    }
    for (const txn::CheckpointIndexImage& image : si.indexes) {
      RestoreIndex(core, slice, image, stats);
    }
  }

  // 2. REDO committed transactions' records plus every CLR, in LSN
  // order, from the checkpoint's begin LSN. Records whose effect landed
  // earlier are already in the restored state, and replaying them is
  // unsafe: a worker that stopped ticking never truncated its log, and
  // a stale CLR there would delete a heap slot that a later committed
  // insert reused.
  Status result = RedoPass(log, ckpt->begin_lsn, stats);
  if (!result.ok()) {
    machine_->SetEnabled(true);
    return result;
  }

  // 3. UNDO losers: transactions with physical records in the usable
  // log but no end record. A fuzzy page may have captured their
  // in-place writes; roll them back from the logged before-images, in
  // reverse LSN order. (A kAbort record proves the live rollback
  // finished and its CLRs were redone above — not a loser. Engines
  // that stage updates privately — MVCC — skip kUpdate undo: the
  // loser's update never reached the table.)
  const size_t usable = static_cast<size_t>(
      std::find_if(log.begin(), log.end(),
                   [](const txn::LogRecord& r) { return r.torn; }) -
      log.begin());
  std::unordered_set<uint64_t> ended;
  for (size_t i = 0; i < usable; ++i) {
    if (log[i].op == txn::LogOp::kCommit ||
        log[i].op == txn::LogOp::kAbort) {
      ended.insert(log[i].txn_id);
    }
  }
  std::unordered_set<uint64_t> losers;
  for (size_t i = 0; i < usable; ++i) {
    const txn::LogRecord& rec = log[i];
    if (rec.clr || ended.count(rec.txn_id) != 0) continue;
    if (rec.op == txn::LogOp::kUpdate ||
        rec.op == txn::LogOp::kInsert ||
        rec.op == txn::LogOp::kDelete) {
      losers.insert(rec.txn_id);
    }
  }
  for (size_t i = usable; i-- > 0;) {
    const txn::LogRecord& rec = log[i];
    if (rec.clr || losers.count(rec.txn_id) == 0) continue;
    if (rec.table < 0 ||
        rec.table >= static_cast<int16_t>(tables_.size())) {
      continue;
    }
    TableRt& rt = tables_[rec.table];
    Slice& slice = SliceAt(rt, rec.slice);
    switch (rec.op) {
      case txn::LogOp::kUpdate:
        if (!updates_in_place() || rec.before().empty()) break;
        if (rec.column >= 0) {
          slice.rows->WriteColumn(core, rec.row, rec.column,
                                  rec.before().data());
        } else if (rec.before().size() >= rt.def.schema.row_bytes()) {
          slice.rows->WriteRow(core, rec.row, rec.before().data());
        }
        ++stats->undone_records;
        break;
      case txn::LogOp::kInsert: {
        // The loser inserted this row; remove it wherever it landed.
        // All operations are no-ops if the fuzzy capture missed it.
        if (slice.primary != nullptr && !rec.key().empty()) {
          slice.primary->Remove(core, RecordKey(rec));
        }
        if (rec.payload().size() >= rt.def.schema.row_bytes()) {
          RemoveSecondaries(core, rt, slice, rec.payload().data());
        }
        slice.rows->Delete(core, rec.row);
        ++stats->undone_records;
        break;
      }
      case txn::LogOp::kDelete: {
        if (rec.before().size() < rt.def.schema.row_bytes()) break;
        slice.rows->RestoreRow(core, rec.row, rec.before().data(),
                               /*present=*/true);
        if (slice.primary != nullptr && !rec.key().empty()) {
          slice.primary->Remove(core, RecordKey(rec));
          slice.primary->Insert(core, RecordKey(rec), rec.row);
        }
        InsertSecondaries(core, rt, slice, rec.before().data(), rec.row);
        ++stats->undone_records;
        break;
      }
      default:
        break;
    }
  }

  machine_->SetEnabled(true);
  return Status::Ok();
}

}  // namespace imoltp::engine
