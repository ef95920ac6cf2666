#ifndef IMOLTP_ENGINE_PARTITIONED_ENGINE_H_
#define IMOLTP_ENGINE_PARTITIONED_ENGINE_H_

#include <unordered_map>

#include "engine/engine_base.h"
#include "txn/partition.h"

namespace imoltp::engine {

/// The partitioned in-memory archetypes: one data partition per worker,
/// serial execution inside a partition, no locks, no buffer pool
/// (VoltDB/H-Store and HyPer; paper Section 2.1).
///
/// Differences:
///   - VoltDB interprets pre-planned stored procedures inside a compact
///     C++ execution engine wrapped by a managed-runtime dispatch layer;
///     its tree index uses cache-line-sized nodes.
///   - HyPer compiles each transaction type to machine code: a tiny,
///     straight-line code region replaces the interpreter entirely, and
///     the index is an Adaptive Radix Tree.
class PartitionedEngine final : public EngineBase {
 public:
  PartitionedEngine(EngineKind kind, mcsim::MachineSim* machine,
                    const EngineOptions& options);

  EngineKind kind() const override { return kind_; }

 protected:
  int num_slices() const override { return options_.num_partitions; }
  /// VoltDB's command log carries no physical records: CLRs and loser
  /// undo have nothing to compensate. HyPer logs physical redo.
  bool logs_physical() const override { return compiled_; }
  index::IndexKind default_index_kind(const TableDef&) const override {
    return kind_ == EngineKind::kHyPer ? index::IndexKind::kArt
                                       : index::IndexKind::kBTreeCacheline;
  }

 private:
  class Ctx;
  friend class Ctx;

  Status Begin(Txn& txn) override;
  CtxBase* Open(CtxSlot* slot, const Txn& txn) override;
  void Abort(CtxBase& ctx) override;
  Status Commit(CtxBase& ctx) override;
  void LogCommit(CtxBase& ctx, const Txn& txn) override;

  int HomeOf(const TxnRequest& request) const {
    return partitions_.PartitionOf(request.partition_key,
                                   request.key_space);
  }
  /// The multi-partition path releases its claims as the body ends,
  /// before the transaction commits or aborts.
  void LeaveMultiPartition(mcsim::CoreSim* core) {
    if (!options_.single_site) {
      partitions_.ReleaseMultiPartition(core, core->core_id());
    }
  }
  mcsim::CodeRegion CompiledRegion(int txn_type, int statements);

  EngineKind kind_;
  bool compiled_;  // HyPer

  VoltDbProfile volt_profile_;
  HyPerProfile hyper_profile_;
  mcsim::CodeRegion dispatch_, ee_op_, index_op_, commit_, log_;
  mcsim::CodeRegion multi_site_;
  // HyPer compiles a transaction type on first dispatch.
  std::unordered_map<int, mcsim::CodeRegion> compiled_txns_;

  txn::PartitionManager partitions_;
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_PARTITIONED_ENGINE_H_
