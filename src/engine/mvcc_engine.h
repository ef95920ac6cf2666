#ifndef IMOLTP_ENGINE_MVCC_ENGINE_H_
#define IMOLTP_ENGINE_MVCC_ENGINE_H_

#include "engine/engine_base.h"
#include "txn/mvcc.h"

namespace imoltp::engine {

/// DBMS M: the main-memory OLTP engine of a traditional disk-based
/// commercial system (paper Section 3). Optimistic multiversion
/// concurrency control, a hash index (or a cache-conscious B-tree where
/// range scans are needed), optional transaction compilation — and a
/// large inherited frontend: the paper repeatedly attributes DBMS M's
/// high L1I stalls to "the legacy code it borrows from the traditional
/// disk-based OLTP system it belongs to" (Sections 4.1.3, 4.2.2, 8).
class MvccEngine final : public EngineBase {
 public:
  MvccEngine(mcsim::MachineSim* machine, const EngineOptions& options);

  EngineKind kind() const override { return EngineKind::kDbmsM; }

 protected:
  index::IndexKind default_index_kind(const TableDef&) const override {
    return options_.dbms_m_index;
  }
  /// MVCC stages updates privately until commit: a loser's kUpdate
  /// never reached the table, so recovery must not undo it.
  bool updates_in_place() const override { return false; }

 private:
  class Ctx;
  friend class Ctx;

  Status Begin(Txn& txn) override;
  CtxBase* Open(CtxSlot* slot, const Txn& txn) override;
  void Abort(CtxBase& ctx) override;
  Status Commit(CtxBase& ctx) override;
  void LogCommit(CtxBase& ctx, const Txn& txn) override;

  DbmsMProfile profile_;
  mcsim::CodeRegion session_, query_layer_, txn_mgmt_, mvcc_op_,
      storage_op_, index_op_, validate_commit_, log_;
  txn::MvccManager mvcc_;
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_MVCC_ENGINE_H_
