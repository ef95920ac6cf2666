#ifndef IMOLTP_ENGINE_DISK_ENGINE_H_
#define IMOLTP_ENGINE_DISK_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/engine_base.h"
#include "txn/lock_manager.h"

namespace imoltp::engine {

/// The disk-based archetypes. Shared traits (paper Sections 2.1 and 3):
/// slotted 8KB pages behind a buffer pool, a traditional 8KB-node B-tree,
/// centralized two-phase locking, ARIES-style logging.
///
/// Differences:
///   - Shore-MT is only a storage manager: query plans are hard-coded
///     C++ (Shore-Kits), so no layers execute around the SM. It locks at
///     row granularity.
///   - DBMS D is a full commercial stack: network, parser, optimizer and
///     plan-interpretation layers run on every transaction — the largest
///     instruction footprint of all five systems. It locks at page
///     granularity.
class DiskEngine final : public EngineBase {
 public:
  DiskEngine(EngineKind kind, mcsim::MachineSim* machine,
             const EngineOptions& options);

  EngineKind kind() const override { return kind_; }

 protected:
  // The buffer-pool ablation (EngineOptions::use_bufferpool = false)
  // stores rows in direct in-memory tables instead of slotted pages
  // behind the pool — the "OLTP through the looking glass" experiment.
  bool disk_based() const override { return options_.use_bufferpool; }
  index::IndexKind default_index_kind(const TableDef&) const override {
    return index::IndexKind::kBTree8K;
  }

 private:
  class Ctx;
  friend class Ctx;

  Status Begin(Txn& txn) override;
  CtxBase* Open(CtxSlot* slot, const Txn& txn) override;
  void Abort(CtxBase& ctx) override;
  void LogCommit(CtxBase& ctx, const Txn& txn) override;
  void Release(CtxBase& ctx) override;
  void Epilogue(CtxBase& ctx) override;

  /// Buffer-pool ablation plumbing: the heap access path is either the
  /// slotted-page file behind the pool or a direct in-memory table.
  const mcsim::CodeRegion& HeapRegion() const {
    return options_.use_bufferpool ? heap_bp_ : heap_direct_;
  }

  EngineKind kind_;
  bool full_stack_;       // DBMS D: frontend layers per transaction
  bool row_level_locks_;  // Shore-MT: row locks; DBMS D: page locks

  // Code regions (instantiated from profiles.h).
  mcsim::CodeRegion network_, parser_, optimizer_, plan_exec_;
  mcsim::CodeRegion xct_begin_, xct_commit_, btree_, heap_bp_, lock_,
      log_;
  mcsim::CodeRegion heap_direct_;  // buffer-pool ablation

  txn::LockManager lock_manager_;
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_DISK_ENGINE_H_
