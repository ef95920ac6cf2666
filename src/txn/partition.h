#ifndef IMOLTP_TXN_PARTITION_H_
#define IMOLTP_TXN_PARTITION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "mcsim/core.h"

namespace imoltp::txn {

/// The partitioned execution model of VoltDB/H-Store and HyPer: one data
/// partition per worker, serial execution within a partition, no locks.
/// A single-partition transaction only checks that it runs on its home
/// partition; a multi-partition transaction must claim every involved
/// partition (the coordination whose cost the paper notes raises
/// VoltDB's instruction stalls by ~60%, Section 7).
class PartitionManager {
 public:
  explicit PartitionManager(int num_partitions)
      : owners_(static_cast<size_t>(num_partitions), kUnclaimed) {}

  PartitionManager(const PartitionManager&) = delete;
  PartitionManager& operator=(const PartitionManager&) = delete;

  int num_partitions() const { return static_cast<int>(owners_.size()); }

  /// Home partition of a partitioning key (range partitioning): the
  /// partition whose slice holds row `key` of a `key_space`-row table.
  /// EngineBase::CreateDatabase gives partition p of n the rows
  /// [floor(key_space·p/n), floor(key_space·(p+1)/n)), so this is the
  /// largest p whose first row is at most `key`.
  int PartitionOf(uint64_t key, uint64_t key_space) const {
    const uint64_t n = owners_.size();
    if (key_space == 0) return 0;
    uint64_t p = ((key + 1) * n - 1) / key_space;
    if (p >= n) p = n - 1;
    return static_cast<int>(p);
  }

  /// Single-partition fast path: verifies `worker` owns `partition`.
  /// Worker i permanently owns partition i.
  Status EnterSinglePartition(mcsim::CoreSim* core, int worker,
                              int partition) {
    core->Read(reinterpret_cast<uint64_t>(&owners_[partition]), 8);
    core->Retire(6);
    if (worker != partition) {
      return Status::Aborted("transaction routed to wrong partition");
    }
    return Status::Ok();
  }

  /// Multi-partition path: claims every partition in `partitions` for
  /// `worker` (fails if any is claimed by another multi-partition txn):
  /// all check reads, then all claim writes.
  Status EnterMultiPartition(mcsim::CoreSim* core, int worker,
                             const std::vector<int>& partitions) {
    for (int p : partitions) {
      core->Read(reinterpret_cast<uint64_t>(&owners_[p]), 8);
      core->Retire(10);
      if (owners_[p] != kUnclaimed && owners_[p] != worker) {
        ReleaseMultiPartition(core, worker);
        return Status::Aborted("partition claimed");
      }
      owners_[p] = worker;
    }
    for (int p : partitions) {
      core->Write(reinterpret_cast<uint64_t>(&owners_[p]), 8);
    }
    return Status::Ok();
  }

  void ReleaseMultiPartition(mcsim::CoreSim* core, int worker) {
    for (int& o : owners_) {
      if (o == worker) {
        o = kUnclaimed;
        core->Write(reinterpret_cast<uint64_t>(&o), 8);
      }
    }
  }

  int owner(int partition) const { return owners_[partition]; }

 private:
  static constexpr int kUnclaimed = -1;
  std::vector<int> owners_;
};

/// Cluster-level partition ownership: which *node* owns each unit of a
/// contiguously block-partitioned key domain (src/dist shards TPC-C by
/// warehouse: node n owns warehouses [n*per_node, (n+1)*per_node)).
/// The intra-node PartitionManager above routes a key to a worker core;
/// this maps it to a node first — the forwarder's single-home vs
/// multi-home classification is entirely a question over this map.
class OwnershipMap {
 public:
  OwnershipMap(int nodes, uint64_t units_per_node)
      : nodes_(nodes), units_per_node_(units_per_node) {}

  int nodes() const { return nodes_; }
  uint64_t units_per_node() const { return units_per_node_; }
  uint64_t total_units() const {
    return units_per_node_ * static_cast<uint64_t>(nodes_);
  }

  /// Owning node of a global unit (warehouse) id.
  int OwnerOf(uint64_t unit) const {
    const uint64_t n = unit / units_per_node_;
    return n >= static_cast<uint64_t>(nodes_) ? nodes_ - 1
                                              : static_cast<int>(n);
  }

  /// Node-local unit id (the warehouse id a node's own engine sees).
  uint64_t LocalUnit(uint64_t unit) const {
    return unit - static_cast<uint64_t>(OwnerOf(unit)) * units_per_node_;
  }

  /// Global unit id of `local` at `node`.
  uint64_t GlobalUnit(int node, uint64_t local) const {
    return static_cast<uint64_t>(node) * units_per_node_ + local;
  }

 private:
  int nodes_;
  uint64_t units_per_node_;
};

}  // namespace imoltp::txn

#endif  // IMOLTP_TXN_PARTITION_H_
